package netsim

import (
	"fmt"

	"repro/internal/inet"
	"repro/internal/sim"
)

// LinkConfig describes one duplex point-to-point link. The same parameters
// apply to both directions.
type LinkConfig struct {
	// BandwidthBPS is the line rate in bits per second. Zero means
	// infinitely fast (no serialization delay).
	BandwidthBPS int64
	// Delay is the one-way propagation delay.
	Delay sim.Time
	// QueueLimit is the droptail queue capacity in packets (not counting
	// the packet in transmission). Zero selects DefaultQueueLimit.
	QueueLimit int
	// QueueLimitBytes additionally bounds the queue in bytes (ns-2-style
	// byte-mode queues). Zero means no byte bound.
	QueueLimitBytes int
}

// DefaultQueueLimit is the droptail capacity used when LinkConfig leaves
// QueueLimit zero. It is large enough that the wired links in the thesis
// topology never tail-drop; the interesting buffering happens in the
// handover buffers, not the link queues.
const DefaultQueueLimit = 1000

// txEntry is one accepted packet's analytically computed departure,
// pending in its Iface's ring until a read folds it into the counters.
// Besides the departure instant it carries the departure's equal-instant
// position (its phantom key, see drainRing): a read made by an event at
// instant dep sees the departure iff the phantom key sorts before that
// event's key.
type txEntry struct {
	dep  sim.Time // serialization end
	size int
	// Phantom departure key at instant dep, in the engine's event order
	// (DESIGN.md §12). pvins is the serialization start; (pvins2, pvseq2)
	// the context that started it — the Send-time firing event for a
	// busy-period root, the predecessor's (pvins, pseq) down a backlog
	// chain; pseq the sequence slot of the busy-period root, propagated
	// down the chain.
	pvins  sim.Time
	pvins2 sim.Time
	pvseq2 uint64
	pseq   uint64
}

// Link is a duplex point-to-point link between two nodes.
type Link struct {
	cfg LinkConfig
	a   *Iface
	b   *Iface
}

// Config returns the link parameters.
func (l *Link) Config() LinkConfig { return l.cfg }

// A returns the interface on the first node passed to Connect.
func (l *Link) A() *Iface { return l.a }

// B returns the interface on the second node passed to Connect.
func (l *Link) B() *Iface { return l.b }

// Iface is one endpoint of a duplex link. It owns the droptail transmit
// queue for its direction.
//
// The transmitter is analytic (DESIGN.md §12): Send computes each
// packet's departure from the busyUntil clock and schedules its delivery
// as the only event; the departure ring reconstructs Sent, QueueLen,
// QueueBytes and the droptail decision lazily at every read.
type Iface struct {
	engine *sim.Engine
	node   Node
	peer   *Iface
	link   *Link

	sent     uint64
	dropped  uint64
	delivers uint64

	// inflight is the FIFO of accepted packets awaiting their delivery
	// event (the per-direction delay is constant, so deliveries complete
	// in acceptance order), and deliverFn the handler pre-bound once at
	// construction so the hot path schedules no fresh closures.
	inflight  pktFIFO
	deliverFn sim.Handler
	// lane is the direction's event lane: deliveries are scheduled in
	// acceptance order, which is the engine's order.
	lane sim.Lane

	// xport, when non-nil, marks this direction as crossing a shard
	// boundary: accepted packets park in the port's outbox for the next
	// barrier flush instead of scheduling a same-engine delivery. See
	// ShardExchange.
	xport *xPort

	// busyUntil is the instant the transmitter frees, ring the FIFO of
	// departures not yet folded into the counters (the head serializing,
	// the rest queued; drained lazily), and ringBytes the byte sum of the
	// live ring entries.
	busyUntil sim.Time
	ring      []txEntry
	ringHead  int
	ringBytes int

	// DropHook, if set, observes every tail drop on this interface.
	DropHook func(pkt *inet.Packet)
	// Impair, if set, is consulted before each transmission; returning
	// true silently discards the packet. Used for failure injection in
	// tests and robustness experiments.
	Impair func(pkt *inet.Packet) bool
	// DiscardHook, if set, observes every packet an Impair hook
	// discarded, so owners can reclaim pooled packets that would
	// otherwise leak (see Topology.HookDiscards).
	DiscardHook func(pkt *inet.Packet)
}

// Node returns the node this interface belongs to.
func (i *Iface) Node() Node { return i.node }

// Peer returns the node on the far end of the link.
func (i *Iface) Peer() Node { return i.peer.node }

// PeerIface returns the interface on the far end of the link.
func (i *Iface) PeerIface() *Iface { return i.peer }

// Link returns the link this interface belongs to.
func (i *Iface) Link() *Link { return i.link }

// Sent returns the number of packets fully transmitted.
func (i *Iface) Sent() uint64 {
	i.drainRing()
	return i.sent
}

// Dropped returns the number of tail-dropped packets.
func (i *Iface) Dropped() uint64 { return i.dropped }

// Delivers returns the number of packets this interface handed to its
// node — the receive-side counterpart of the peer's Sent.
func (i *Iface) Delivers() uint64 { return i.delivers }

// QueueLen returns the number of packets waiting behind the one in
// transmission.
func (i *Iface) QueueLen() int {
	i.drainRing()
	if m := len(i.ring) - i.ringHead; m > 0 {
		return m - 1
	}
	return 0
}

// QueueBytes returns the bytes waiting behind the one in transmission.
func (i *Iface) QueueBytes() int {
	i.drainRing()
	if m := len(i.ring) - i.ringHead; m > 0 {
		return i.ringBytes - i.ring[i.ringHead].size
	}
	return 0
}

// String identifies the interface as "node->peer".
func (i *Iface) String() string {
	return fmt.Sprintf("%s->%s", i.node.Name(), i.peer.node.Name())
}

// Send queues pkt for transmission toward the peer. If the transmitter is
// idle the packet starts serializing immediately; otherwise it joins the
// droptail queue and is dropped if the queue is full. No transmit event
// is scheduled: the departure instant follows from the busyUntil clock,
// and the single delivery event is pinned (sim.AtPinned) at the
// departure's phantom key, which fixes its order among equal-instant
// events. See DESIGN.md §12.
func (i *Iface) Send(pkt *inet.Packet) {
	if pkt == nil {
		panic("netsim: Send(nil)")
	}
	if i.Impair != nil && i.Impair(pkt) {
		if i.DiscardHook != nil {
			i.DiscardHook(pkt)
		}
		return
	}
	i.drainRing()
	m := len(i.ring) - i.ringHead
	if m > 0 {
		// Transmitter busy: the ring head is the packet serializing, the
		// rest the queue.
		limit := i.link.cfg.QueueLimit
		if limit == 0 {
			limit = DefaultQueueLimit
		}
		byteLimit := i.link.cfg.QueueLimitBytes
		if m-1 >= limit || (byteLimit > 0 && i.ringBytes-i.ring[i.ringHead].size+pkt.Size > byteLimit) {
			i.dropped++
			if i.DropHook != nil {
				i.DropHook(pkt)
			}
			return
		}
	}
	e := i.engine
	now := e.Now()
	var txTime sim.Time
	if bps := i.link.cfg.BandwidthBPS; bps > 0 {
		txTime = sim.Time(int64(pkt.Size) * 8 * int64(sim.Second) / bps)
	}
	var ent txEntry
	start := now
	if m > 0 {
		// Backlogged: serialization starts when the predecessor departs,
		// and the phantom key continues the predecessor's lineage.
		prev := &i.ring[len(i.ring)-1]
		start = i.busyUntil
		ent.pvins2, ent.pvseq2, ent.pseq = prev.pvins, prev.pseq, prev.pseq
	} else if fv, _, _, fseq, firing := e.FiringKey(); firing {
		ent.pvins2, ent.pvseq2 = fv, fseq
		ent.pseq = e.NextSeq()
	} else {
		ent.pvins2, ent.pvseq2 = now, e.NextSeq()
		ent.pseq = e.NextSeq()
	}
	dep := start + txTime
	ent.dep, ent.size, ent.pvins = dep, pkt.Size, start
	i.busyUntil = dep
	i.ring = append(i.ring, ent)
	i.ringBytes += pkt.Size
	if i.xport != nil {
		// Cross-shard: park at the analytically known arrival right
		// away. The arrival is at least one lookahead ahead of the
		// sending shard's clock, so the epoch protocol stays sound.
		i.xport.park(dep+i.link.cfg.Delay, pkt)
		return
	}
	i.inflight.push(pkt)
	e.AtPinnedIn(i.lane, dep+i.link.cfg.Delay, dep, start, ent.pseq, i.deliverFn)
}

// deliver fires one propagation delay after a departure and hands the
// oldest in-flight packet to the peer. The constant per-direction delay
// guarantees deliveries complete in acceptance order, so the FIFO head is
// always the arriving packet.
func (i *Iface) deliver() {
	pkt := i.inflight.pop()
	i.peer.delivers++
	i.peer.node.HandlePacket(i.peer, pkt)
}

// pktFIFO is a packet FIFO with O(1) dequeues: pop advances a head index
// instead of shifting the slice. Storage is reclaimed the way drainRing
// reclaims its ring: reset when empty, compacted when the dead prefix
// dominates, so a FIFO that never empties stays O(backlog).
type pktFIFO struct {
	q    []*inet.Packet
	head int
}

func (f *pktFIFO) len() int { return len(f.q) - f.head }

func (f *pktFIFO) push(pkt *inet.Packet) { f.q = append(f.q, pkt) }

// pop removes and returns the oldest packet; the FIFO must be non-empty.
func (f *pktFIFO) pop() *inet.Packet {
	pkt := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	} else if f.head >= 64 && f.head*2 >= len(f.q) {
		kept := copy(f.q, f.q[f.head:])
		clear(f.q[kept:])
		f.q = f.q[:kept]
		f.head = 0
	}
	return pkt
}

// drainRing retires every pending departure that has happened by now,
// folding each into the sent counter and the occupancy accounting.
// Departure instants themselves never depend on the drain (only
// busyUntil does, and drains don't touch it).
func (i *Iface) drainRing() {
	h, n := i.ringHead, len(i.ring)
	if h == n {
		return
	}
	now := i.engine.Now()
	for h < n {
		ent := &i.ring[h]
		if ent.dep > now || (ent.dep == now && !i.phantomFired(ent)) {
			break
		}
		i.sent++
		i.ringBytes -= ent.size
		h++
	}
	// Reclaim ring storage: reset when empty, compact when the dead
	// prefix dominates, so a permanently busy link stays O(backlog).
	if h == len(i.ring) {
		i.ring = i.ring[:0]
		h = 0
	} else if h >= 64 && h*2 >= len(i.ring) {
		kept := copy(i.ring, i.ring[h:])
		i.ring = i.ring[:kept]
		h = 0
	}
	i.ringHead = h
}

// phantomFired reports whether the departure ent — ordered at the current
// instant by the key (now, pvins, pvins2, pvseq2, pseq) — precedes the
// event whose handler is currently running. With no handler running (a
// read between engine runs) it has happened: Run fires events at the
// horizon instant before returning.
func (i *Iface) phantomFired(ent *txEntry) bool {
	fv, fv2, fs2, fseq, firing := i.engine.FiringKey()
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

// newLink builds a duplex link whose directions run on the given engines
// (the same engine for a plain link) with the delivery handlers pre-bound.
func newLink(ea, eb *sim.Engine, a, b Node, cfg LinkConfig) *Link {
	l := &Link{cfg: cfg}
	l.a = &Iface{engine: ea, node: a, link: l, lane: ea.NewLane()}
	l.b = &Iface{engine: eb, node: b, link: l, lane: eb.NewLane()}
	l.a.peer, l.b.peer = l.b, l.a
	l.a.deliverFn, l.b.deliverFn = l.a.deliver, l.b.deliver
	return l
}

// attach tells nodes that implement the internal attachIface hook (hosts,
// routers) about their new interface.
func (l *Link) attach() *Link {
	if at, ok := l.a.node.(IfaceAttacher); ok {
		at.AttachIface(l.a)
	}
	if bt, ok := l.b.node.(IfaceAttacher); ok {
		bt.AttachIface(l.b)
	}
	return l
}

// Connect creates a duplex link between two nodes and returns it. Nodes
// that implement the internal attachIface hook (hosts, routers) are told
// about their new interface.
func Connect(engine *sim.Engine, a, b Node, cfg LinkConfig) *Link {
	if engine == nil {
		panic("netsim: Connect with nil engine")
	}
	return newLink(engine, engine, a, b, cfg).attach()
}
