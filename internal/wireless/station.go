package wireless

import (
	"fmt"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Medium is the registry of radios sharing the simulated air. It exists so
// beacons and frames can find the stations in coverage. Two indexes keep
// the data plane O(1) in the station population (DESIGN.md §13): an
// addr→station table for downlink delivery and a position-bucket index for
// beacon coverage scans.
type Medium struct {
	engine *sim.Engine
	// switchLane holds the stations' re-attachments, each one L2
	// blackout after its detach.
	switchLane sim.Lane
	aps        []*AccessPoint
	stations   []*Station

	// addrIndex names the sole station accepting each address; it is the
	// only record of which addresses a station accepts. Addresses are
	// single-owner: claimAddr panics if a second station claims a live
	// address, which pins the invariant the index depends on.
	addrIndex inet.AddrTable[*Station]

	buckets bucketIndex
}

// NewMedium creates an empty medium.
func NewMedium(engine *sim.Engine) *Medium {
	if engine == nil {
		panic("wireless: NewMedium with nil engine")
	}
	return &Medium{engine: engine, switchLane: engine.NewLane()}
}

// Engine returns the simulation engine.
func (m *Medium) Engine() *sim.Engine { return m.engine }

func (m *Medium) addAP(ap *AccessPoint) { m.aps = append(m.aps, ap) }

func (m *Medium) addStation(s *Station) {
	s.id = len(m.stations)
	m.stations = append(m.stations, s)
	m.buckets.add(m, s)
}

// APs returns the registered access points.
func (m *Medium) APs() []*AccessPoint { return m.aps }

// owner returns the station accepting a, or nil.
func (m *Medium) owner(a inet.Addr) *Station {
	s, _ := m.addrIndex.Get(a)
	return s
}

func (m *Medium) claimAddr(a inet.Addr, s *Station) {
	if cur := m.owner(a); cur != nil {
		if cur != s {
			panic(fmt.Sprintf("wireless: address %v claimed by %s while owned by %s", a, s.name, cur.name))
		}
		return
	}
	m.addrIndex.Set(a, s)
}

func (m *Medium) releaseAddr(a inet.Addr, s *Station) {
	if m.owner(a) == s {
		m.addrIndex.Delete(a)
	}
}

// StationConfig configures a mobile station's radio.
type StationConfig struct {
	// BandwidthBPS is the uplink line rate.
	BandwidthBPS int64
	// AirDelay is the per-frame uplink latency.
	AirDelay sim.Time
	// L2HandoffDelay is the blackout while the NIC re-associates with a
	// new access point (200 ms in the thesis' simulations). During the
	// blackout the station neither sends nor receives and hears no
	// beacons: "currently available IEEE 802.11 wireless LAN card can
	// only access one access point at a time".
	L2HandoffDelay sim.Time
	// QueueLimit bounds the uplink queue, in packets.
	QueueLimit int
}

// Station is a mobile host's wireless NIC. The mobility-protocol engine
// (internal/core) drives it through Associate/SwitchTo and observes it
// through the On* callbacks. Once a core.MobileHost is bound to a station
// it owns all four callbacks; external observers must use the MobileHost's
// hooks instead of replacing them.
type Station struct {
	name   string
	cfg    StationConfig
	engine *sim.Engine
	medium *Medium
	motion Motion

	// Position-index state, owned by the medium's bucketIndex.
	id      int
	bucket  int
	crosser BoundaryCrosser

	ap        *AccessPoint
	switching bool

	// Uplink transmitter (DESIGN.md §13): the analytic clock, the FIFO of
	// admitted frames awaiting their arrival event — each carrying the AP
	// it was aimed at, since a frame stays aimed there even if the station
	// detaches before it lands — the arrival handler, and the NIC-reset
	// repair state (see nicReset).
	clock         airClock
	inflight      fifo[airFrame]
	airFn         sim.Handler
	repairPending bool
	flushAt       sim.Time
	flushKey      airTxEntry
	holdQueue     fifo[*inet.Packet]
	flushFn       sim.Handler

	txDrops uint64
	// TxDropHook observes uplink packets the station discards: sends
	// while detached, queue-overflow tail drops, and the NIC-reset queue
	// flush on link-down. It mirrors AccessPoint.AirDropHook so scenarios
	// can account (and recycle) station-side losses too.
	TxDropHook func(pkt *inet.Packet)

	// OnRA is invoked for every router advertisement heard, including
	// beacons from foreign access points while in an overlap area.
	OnRA func(adv Advertisement)
	// OnPacket delivers received network-layer packets.
	OnPacket func(pkt *inet.Packet)
	// OnLinkUp fires when an association completes (including the initial
	// one).
	OnLinkUp func(ap *AccessPoint)
	// OnLinkDown fires when the station detaches (start of the L2
	// blackout).
	OnLinkDown func(ap *AccessPoint)
}

// NewStation creates a station and registers it with the medium. It starts
// detached.
func NewStation(name string, medium *Medium, motion Motion, cfg StationConfig) *Station {
	s := &Station{
		name:   name,
		cfg:    cfg,
		engine: medium.engine,
		medium: medium,
		motion: motion,
	}
	s.airFn = s.airArrive
	s.flushFn = s.settle
	medium.addStation(s)
	return s
}

// airFrame is one uplink frame propagating over the air.
type airFrame struct {
	pkt *inet.Packet
	ap  *AccessPoint
}

// Name returns the station identifier.
func (s *Station) Name() string { return s.name }

// Pos returns the station's position at the given instant.
func (s *Station) Pos(at sim.Time) float64 { return s.motion.Pos(at) }

// AP returns the currently associated access point, or nil.
func (s *Station) AP() *AccessPoint { return s.ap }

// Switching reports whether the station is inside an L2 handoff blackout.
func (s *Station) Switching() bool { return s.switching }

// CanReceive reports whether the radio can accept downlink frames.
func (s *Station) CanReceive() bool { return s.ap != nil && !s.switching }

// TxDrops counts uplink packets lost because the station was detached or
// its queue overflowed.
func (s *Station) TxDrops() uint64 {
	s.settle()
	return s.txDrops
}

// Sent counts uplink frames fully serialized onto the air.
func (s *Station) Sent() uint64 {
	s.settle()
	return s.clock.sent
}

// QueueLen returns the number of uplink packets waiting behind the frame
// being serialized.
func (s *Station) QueueLen() int {
	s.settle()
	if s.repairPending {
		return s.holdQueue.Len()
	}
	if m := s.clock.occupancy(); m > 0 {
		return m - 1
	}
	return 0
}

// AddAddr registers an address the station accepts (care-of addresses come
// and go during handovers) and indexes it for O(1) downlink delivery.
func (s *Station) AddAddr(a inet.Addr) { s.medium.claimAddr(a, s) }

// RemoveAddr deregisters an address.
func (s *Station) RemoveAddr(a inet.Addr) { s.medium.releaseAddr(a, s) }

// HasAddr reports whether the station currently accepts an address: the
// medium's index names it as the owner.
func (s *Station) HasAddr(a inet.Addr) bool { return s.medium.owner(a) == s }

func (s *Station) hearsBeacons() bool { return !s.switching }

// Associate attaches the station to an access point immediately (initial
// attachment; no blackout).
func (s *Station) Associate(ap *AccessPoint) {
	s.ap = ap
	s.switching = false
	if s.OnLinkUp != nil {
		s.OnLinkUp(ap)
	}
}

// SwitchTo starts a link-layer handoff toward the target access point: the
// station detaches now and re-attaches after the configured L2 blackout.
func (s *Station) SwitchTo(target *AccessPoint) {
	old := s.ap
	s.ap = nil
	s.switching = true
	s.nicReset()
	if s.OnLinkDown != nil {
		s.OnLinkDown(old)
	}
	s.engine.ScheduleIn(s.medium.switchLane, s.cfg.L2HandoffDelay, func() {
		s.switching = false
		s.ap = target
		if s.OnLinkUp != nil {
			s.OnLinkUp(target)
		}
	})
}

// Detach drops the association without re-attaching.
func (s *Station) Detach() {
	old := s.ap
	s.ap = nil
	s.nicReset()
	if old != nil && s.OnLinkDown != nil {
		s.OnLinkDown(old)
	}
}

func (s *Station) queueLimit() int {
	if s.cfg.QueueLimit == 0 {
		return netsim.DefaultQueueLimit
	}
	return s.cfg.QueueLimit
}

// dropTx discards an uplink packet the radio will never transmit.
func (s *Station) dropTx(pkt *inet.Packet) {
	s.txDrops++
	if s.TxDropHook != nil {
		s.TxDropHook(pkt)
	}
}

// Send transmits a network-layer packet uplink through the associated
// access point. Packets sent while detached are lost (counted in TxDrops
// and observed by TxDropHook): the station's queue is flushed on link-down
// like a real NIC reset.
func (s *Station) Send(pkt *inet.Packet) {
	if !s.CanReceive() {
		s.dropTx(pkt)
		return
	}
	s.admit(pkt)
}

// admit queues pkt on the analytic uplink: one pre-bound arrival event at
// the frame's departure plus AirDelay, pinned at the departure's phantom
// key.
func (s *Station) admit(pkt *inet.Packet) {
	s.settle()
	if s.repairPending {
		// A NIC reset happened while a frame was still serializing and
		// the station has already re-attached; until that frame departs
		// (the instant the flush is decided) new packets wait in the hold
		// queue.
		if s.holdQueue.Len() >= s.queueLimit() {
			s.dropTx(pkt)
			return
		}
		s.holdQueue.Push(pkt)
		return
	}
	if m := s.clock.occupancy(); m > 0 && m-1 >= s.queueLimit() {
		s.dropTx(pkt)
		return
	}
	start, dep, idx := s.clock.push(s.engine, pkt.Size, s.cfg.BandwidthBPS)
	ent := &s.clock.ring[idx]
	s.inflight.Push(airFrame{pkt: pkt, ap: s.ap})
	ent.ref = s.engine.AtPinnedIn(s.ap.upLane, dep+s.cfg.AirDelay, dep, start, ent.pseq, s.airFn)
}

// nicReset applies the NIC reset on link-down. The serializing frame and
// frames already on the air continue toward the AP they were aimed at;
// queued frames wait for the serializing frame to depart — if the station
// has re-attached by then they restart toward the new AP, otherwise they
// are flushed. Queued frames already have delivery events, so nicReset
// cancels them, parks the packets in the hold queue, rewinds busyUntil to
// the serializing frame's departure, and pins a flush-decision event at
// that departure's phantom key.
func (s *Station) nicReset() {
	s.settle()
	if s.repairPending {
		// An earlier reset's flush decision is still due; the ring holds
		// only the serializing frame, so there is nothing new to repair.
		return
	}
	m := s.clock.occupancy()
	if m <= 1 {
		return // nothing queued behind the serializing frame
	}
	head := s.clock.ringHead
	tail := m - 1
	base := s.inflight.Len() - tail
	for i := 0; i < tail; i++ {
		s.engine.Cancel(s.clock.ring[head+1+i].ref)
		s.holdQueue.Push(s.inflight.At(base + i).pkt)
	}
	s.inflight.DropTail(tail)
	s.clock.ring = s.clock.ring[:head+1]
	cur := &s.clock.ring[head]
	s.clock.busyUntil = cur.dep
	s.repairPending = true
	s.flushAt = cur.dep
	s.flushKey = *cur
	s.engine.AtPinned(cur.dep, cur.pvins, cur.pvins2, cur.pvseq2, s.flushFn)
}

// settle brings the uplink up to date: it retires departed frames and
// applies a pending NIC-reset flush decision. It is also the pinned
// flush-decision event scheduled by nicReset, so held packets restart (or
// flush) even if nothing else touches the station.
func (s *Station) settle() {
	s.clock.drain(s.engine)
	s.resolveFlush()
}

// resolveFlush applies a pending NIC-reset flush decision once the
// serializing frame has departed (its phantom key precedes the firing
// event): if the station can transmit again the held packets restart
// toward the current AP, otherwise they are flushed. It runs lazily from
// reads too, so same-instant probes between the departure and the pinned
// flush event observe the post-decision state.
func (s *Station) resolveFlush() {
	if !s.repairPending {
		return
	}
	now := s.engine.Now()
	if s.flushAt > now || (s.flushAt == now && !phantomFired(s.engine, &s.flushKey)) {
		return
	}
	s.repairPending = false
	n := s.holdQueue.Len()
	if s.CanReceive() {
		for i := 0; i < n; i++ {
			s.admit(s.holdQueue.Pop())
		}
		return
	}
	// NIC reset on detach: queued frames are lost.
	for i := 0; i < n; i++ {
		s.dropTx(s.holdQueue.Pop())
	}
}

// airArrive fires one air delay after the frame departs (constant delay
// keeps the FIFO in arrival order). The frame only lands if the station is
// still in the target AP's coverage when it arrives.
func (s *Station) airArrive() {
	f := s.inflight.Pop()
	if f.ap != nil && f.ap.Covers(s.Pos(s.engine.Now())) {
		f.ap.sendUp(f.pkt)
	}
}

func (s *Station) deliverRA(adv Advertisement) {
	if s.OnRA != nil {
		s.OnRA(adv)
	}
}

func (s *Station) deliverPacket(pkt *inet.Packet) {
	if s.OnPacket != nil {
		s.OnPacket(pkt)
	}
}
