package wireless

import "repro/internal/sim"

// The air transmit path (DESIGN.md §13) is the radio twin of netsim's
// analytic wired hop (§12): the transmitter schedules no event when a
// frame finishes serializing. It keeps an analytic busyUntil clock and
// schedules a single pre-bound delivery event per frame at
//
//	max(now, busyUntil) + serialization + AirDelay.
//
// Queue occupancy, drop decisions, and counters are reconstructed on
// demand by lazily draining a departure ring of per-frame analytic
// records. Every delivery is pinned with sim.AtPinned at its departure's
// phantom key, which fixes its order among equal-instant events.
//
// A zero-bandwidth radio serializes instantly, so every frame departs at
// its admission instant. The frames of one busy period — the first frame
// admitted to an idle transmitter and those admitted behind it — carry
// their root's sequence slot in their phantom keys, so at a shared instant
// one transmitter's
// chain departs, and with equal air delays arrives, contiguously and in
// admission order, before any chain rooted later at that instant.

// airTxEntry is the analytic record of one frame accepted by a
// transmitter: its departure instant (end of serialization) and the
// departure's phantom key, which orders same-instant reads (QueueLen at
// the departure instant) against the departure the way the pinned
// delivery event is ordered.
type airTxEntry struct {
	dep    sim.Time
	pvins  sim.Time
	pvins2 sim.Time
	pvseq2 uint64
	pseq   uint64
	// ref is the frame's pinned delivery event, kept so the station can
	// cancel not-yet-started frames on a NIC reset. Unused by the AP.
	ref sim.EventRef
}

// airClock is the analytic transmit state shared by the AP's downlink and
// the station's uplink: the busyUntil clock, the lazily drained departure
// ring, and the retired-frame counter.
type airClock struct {
	busyUntil sim.Time
	ring      []airTxEntry
	ringHead  int
	sent      uint64
}

// occupancy returns the number of frames admitted but not yet departed
// (the serializing frame plus the queue behind it). Call drain first.
func (c *airClock) occupancy() int { return len(c.ring) - c.ringHead }

// drain retires ring entries whose departure has passed, advancing sent.
// A frame departing exactly now counts only if its phantom key precedes
// the currently firing event.
func (c *airClock) drain(e *sim.Engine) {
	h, n := c.ringHead, len(c.ring)
	if h == n {
		return
	}
	now := e.Now()
	for h < n {
		ent := &c.ring[h]
		if ent.dep > now || (ent.dep == now && !phantomFired(e, ent)) {
			break
		}
		c.sent++
		h++
	}
	// Reclaim ring storage: reset when empty, compact when the dead
	// prefix dominates, so a saturated radio stays O(backlog).
	if h == len(c.ring) {
		c.ring = c.ring[:0]
		h = 0
	} else if h >= 64 && h*2 >= len(c.ring) {
		kept := copy(c.ring, c.ring[h:])
		c.ring = c.ring[:kept]
		h = 0
	}
	c.ringHead = h
}

// push admits a frame of the given size, computes its serialization
// window analytically, and appends its ring entry. It returns the
// serialization start, the departure instant, and the new entry's index
// (valid until the next append). A backlogged frame's phantom key
// continues its predecessor's lineage; an idle frame's roots a new one in
// the currently firing event.
func (c *airClock) push(e *sim.Engine, size int, bps int64) (start, dep sim.Time, idx int) {
	now := e.Now()
	var txTime sim.Time
	if bps > 0 {
		txTime = sim.Time(int64(size) * 8 * int64(sim.Second) / bps)
	}
	var ent airTxEntry
	start = now
	if c.occupancy() > 0 {
		prev := &c.ring[len(c.ring)-1]
		start = c.busyUntil
		ent.pvins2, ent.pvseq2, ent.pseq = prev.pvins, prev.pseq, prev.pseq
	} else if fv, _, _, fseq, firing := e.FiringKey(); firing {
		ent.pvins2, ent.pvseq2 = fv, fseq
		ent.pseq = e.NextSeq()
	} else {
		ent.pvins2, ent.pvseq2 = now, e.NextSeq()
		ent.pseq = e.NextSeq()
	}
	dep = start + txTime
	ent.dep, ent.pvins = dep, start
	c.busyUntil = dep
	c.ring = append(c.ring, ent)
	return start, dep, len(c.ring) - 1
}

// phantomFired reports whether ent's departure sorts before the event the
// engine is currently firing, i.e. whether it has happened as seen from
// that event. With no handler running (a read between engine runs) it
// has.
func phantomFired(e *sim.Engine, ent *airTxEntry) bool {
	fv, fv2, fs2, fseq, firing := e.FiringKey()
	if !firing {
		return true
	}
	if ent.pvins != fv {
		return ent.pvins < fv
	}
	if ent.pvins2 != fv2 {
		return ent.pvins2 < fv2
	}
	if ent.pvseq2 != fs2 {
		return ent.pvseq2 < fs2
	}
	return ent.pseq < fseq
}
