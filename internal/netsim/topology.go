package netsim

import (
	"fmt"
	"sort"

	"repro/internal/inet"
	"repro/internal/sim"
)

// Topology owns the node and link inventory of a simulation and computes
// static shortest-path routes, playing the role of ns-2's scenario setup.
type Topology struct {
	engine *sim.Engine
	nodes  []Node
	links  []*Link
	owners map[inet.NetID]Node

	nextPktID  uint64
	nextFlowID inet.FlowID

	// Packet recycling: dead packets are parked in the graveyard and only
	// returned to the pool once the releasing handler has returned (an
	// engine Defer), so observers chained later in the releasing event
	// (tracing hooks, recorders) still read intact fields. The pool is the
	// topology's own unless it was built on a shared one.
	pool      *inet.PacketPool
	graveyard []*inet.Packet
	reapFn    sim.Handler
	reapArmed bool
}

// NewTopology creates an empty topology bound to an engine, with a packet
// pool of its own.
func NewTopology(engine *sim.Engine) *Topology {
	return NewTopologyWithPool(engine, new(inet.PacketPool))
}

// NewTopologyWithPool creates an empty topology bound to an engine whose
// packets come from, and return to, the given pool. Topologies that share
// a pool must run on the same engine goroutine; the shards of a partition
// each get theirs from ShardExchange.Pool.
func NewTopologyWithPool(engine *sim.Engine, pool *inet.PacketPool) *Topology {
	if engine == nil {
		panic("netsim: NewTopology with nil engine")
	}
	if pool == nil {
		panic("netsim: NewTopologyWithPool with nil pool")
	}
	t := &Topology{
		engine: engine,
		owners: make(map[inet.NetID]Node),
		pool:   pool,
	}
	t.reapFn = t.reap
	return t
}

// AllocPacket returns a zeroed packet from the topology's pool. The
// caller fills in every field it needs; recycled packets carry nothing
// over from their previous life.
func (t *Topology) AllocPacket() *inet.Packet { return t.pool.Get() }

// ReleasePacket recycles a dead packet into the topology's pool. Call
// it only from a final sink (deliver or drop) that owns the packet
// outright; the slot is actually reclaimed once the releasing handler
// returns, so hooks running later in the same event still see the packet
// intact. Inner packets are not released implicitly — release each layer
// of a chain explicitly once it is dead. Releasing the same packet twice
// in one cycle is a harmless no-op.
func (t *Topology) ReleasePacket(pkt *inet.Packet) {
	if pkt == nil {
		return
	}
	t.graveyard = append(t.graveyard, pkt)
	if !t.reapArmed {
		t.reapArmed = true
		t.engine.Defer(t.reapFn)
	}
}

// PoolStats reports the packet pool's traffic (see inet.PoolStats): the
// whole shared pool's when the topology was built on one. Packets released
// but not yet reclaimed count as out of the pool.
func (t *Topology) PoolStats() inet.PoolStats { return t.pool.Stats() }

// reap moves graveyard packets into the pool once the releasing handler
// (and every observer it called) has returned.
func (t *Topology) reap() {
	t.reapArmed = false
	for i, pkt := range t.graveyard {
		t.pool.Put(pkt)
		t.graveyard[i] = nil
	}
	t.graveyard = t.graveyard[:0]
}

// Engine returns the simulation engine.
func (t *Topology) Engine() *sim.Engine { return t.engine }

// AddNode registers a node. Registration is idempotent.
func (t *Topology) AddNode(n Node) {
	for _, existing := range t.nodes {
		if existing == n {
			return
		}
	}
	t.nodes = append(t.nodes, n)
}

// Nodes returns the registered nodes in insertion order.
func (t *Topology) Nodes() []Node { return t.nodes }

// Connect links two nodes (registering them if needed) and records the link
// for route computation.
func (t *Topology) Connect(a, b Node, cfg LinkConfig) *Link {
	t.AddNode(a)
	t.AddNode(b)
	l := Connect(t.engine, a, b, cfg)
	t.links = append(t.links, l)
	return l
}

// Links returns all links in creation order.
func (t *Topology) Links() []*Link { return t.links }

// HookDrops installs fn as the tail-drop observer on both interfaces of
// every link created so far, chaining after any hook already installed.
// Call it once all links are connected.
func (t *Topology) HookDrops(fn func(pkt *inet.Packet)) {
	for _, l := range t.links {
		for _, ifc := range [...]*Iface{l.A(), l.B()} {
			if prev := ifc.DropHook; prev != nil {
				ifc.DropHook = func(pkt *inet.Packet) { prev(pkt); fn(pkt) }
			} else {
				ifc.DropHook = fn
			}
		}
	}
}

// HookDiscards installs fn as the Impair-discard observer on both
// interfaces of every link created so far, chaining after any hook already
// installed. Discarded packets are consumed by the link (they are never
// delivered or tail-drop-hooked), so a topology that pools packets must
// reclaim them here or leak them. Call it once all links are connected.
func (t *Topology) HookDiscards(fn func(pkt *inet.Packet)) {
	for _, l := range t.links {
		for _, ifc := range [...]*Iface{l.A(), l.B()} {
			if prev := ifc.DiscardHook; prev != nil {
				ifc.DiscardHook = func(pkt *inet.Packet) { prev(pkt); fn(pkt) }
			} else {
				ifc.DiscardHook = fn
			}
		}
	}
}

// ClaimNet declares that the given node terminates a network: shortest-path
// routes for the network's prefix lead to that node.
func (t *Topology) ClaimNet(n inet.NetID, owner Node) {
	t.AddNode(owner)
	t.owners[n] = owner
}

// NetOwner returns the node that terminates a network, or nil.
func (t *Topology) NetOwner(n inet.NetID) Node { return t.owners[n] }

// NewPacketID returns a run-unique packet identifier.
func (t *Topology) NewPacketID() uint64 {
	t.nextPktID++
	return t.nextPktID
}

// NewFlowID returns a run-unique flow identifier (starting at 1).
func (t *Topology) NewFlowID() inet.FlowID {
	t.nextFlowID++
	return t.nextFlowID
}

// ComputeRoutes fills every router's prefix-routing table with the first
// hop of the minimum-delay path to each claimed network's owner. It must be
// called after all links are connected and networks claimed, and may be
// called again after topology changes.
func (t *Topology) ComputeRoutes() error {
	adj := t.adjacency()
	for _, n := range t.nodes {
		r, ok := n.(*Router)
		if !ok {
			continue
		}
		dist, firstHop := t.dijkstra(r, adj)
		for netID, owner := range t.owners {
			if owner == Node(r) {
				continue // locally terminated network; delivery is custom
			}
			hop, ok := firstHop[owner]
			if !ok {
				if _, reachable := dist[owner]; !reachable {
					return fmt.Errorf("netsim: no path from %s to owner of net %d (%s)",
						r.Name(), netID, owner.Name())
				}
				continue
			}
			r.AddPrefixRoute(netID, hop)
		}
	}
	return nil
}

// adjacency maps each node to its link endpoints.
func (t *Topology) adjacency() map[Node][]*Iface {
	adj := make(map[Node][]*Iface, len(t.nodes))
	for _, l := range t.links {
		adj[l.a.node] = append(adj[l.a.node], l.a)
		adj[l.b.node] = append(adj[l.b.node], l.b)
	}
	return adj
}

// dijkstra computes minimum-delay distances from src and the first-hop
// interface (out of src) on the shortest path to every reachable node. Ties
// are broken deterministically by node name.
func (t *Topology) dijkstra(src Node, adj map[Node][]*Iface) (map[Node]sim.Time, map[Node]*Iface) {
	const hopCost = sim.Time(1) // keeps zero-delay links from creating ties
	dist := map[Node]sim.Time{src: 0}
	firstHop := make(map[Node]*Iface)
	visited := make(map[Node]bool)

	for {
		// Select the unvisited node with the smallest distance
		// (deterministic tie-break on name).
		var cur Node
		best := sim.MaxTime
		candidates := make([]Node, 0, len(dist))
		for n := range dist {
			if !visited[n] {
				candidates = append(candidates, n)
			}
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name() < candidates[j].Name() })
		for _, n := range candidates {
			if dist[n] < best {
				best = dist[n]
				cur = n
			}
		}
		if cur == nil {
			break
		}
		visited[cur] = true
		for _, ifc := range adj[cur] {
			next := ifc.peer.node
			nd := dist[cur] + ifc.link.cfg.Delay + hopCost
			old, seen := dist[next]
			if !seen || nd < old {
				dist[next] = nd
				if cur == src {
					firstHop[next] = ifc
				} else {
					firstHop[next] = firstHop[cur]
				}
			}
		}
	}
	return dist, firstHop
}
