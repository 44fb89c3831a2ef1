package mip

import (
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// AgentConfig parameterizes a mobility agent (MAP or home agent).
type AgentConfig struct {
	// ManagedNet is the prefix whose addresses the agent intercepts (the
	// MAP's RCoA subnet, or the home network).
	ManagedNet inet.NetID
	// MaxLifetime caps granted binding lifetimes. Zero means "grant the
	// requested lifetime unchanged".
	MaxLifetime sim.Time
	// Alloc supplies the tunnel wrappers and the SafetyNet bicast copies;
	// a packet pool keeps the anchor's data path allocation-free. Nil
	// selects heap allocation.
	Alloc func() *inet.Packet
}

// bicastEntry is one active SafetyNet duplication: until expire, packets
// intercepted for the key are additionally tunnelled to ncoa.
type bicastEntry struct {
	ncoa   inet.Addr
	expire sim.Time
}

// Agent is a mobility anchor: a router that intercepts packets addressed
// into its managed prefix and tunnels them to the registered care-of
// address. With ManagedNet set to the MAP subnet it is a Hierarchical
// Mobile IPv6 MAP; with the home prefix it is a home agent. The two roles
// share all mechanics, which is exactly the thesis' "the MAP can be thought
// of as a local home agent" observation.
type Agent struct {
	router *netsim.Router
	engine *sim.Engine
	cfg    AgentConfig
	cache  *BindingCache

	// bicast maps bound addresses under SafetyNet handoff to their
	// duplication target (empty outside SafetyNet runs).
	bicast inet.AddrTable[bicastEntry]

	intercepted   uint64
	noBinding     uint64
	bicastPackets uint64
	bicastBytes   uint64

	// OnBicast observes every emitted duplicate (the tunnel wrapper), for
	// bandwidth-overhead accounting.
	OnBicast func(*inet.Packet)
}

// NewAgent wraps a router (created by the caller and already linked into
// the topology) with mobility-agent behaviour. It installs Intercept and
// LocalDeliver hooks on the router.
func NewAgent(engine *sim.Engine, router *netsim.Router, cfg AgentConfig) *Agent {
	if cfg.Alloc == nil {
		cfg.Alloc = func() *inet.Packet { return new(inet.Packet) }
	}
	a := &Agent{
		router: router,
		engine: engine,
		cfg:    cfg,
		cache:  NewBindingCache(),
	}
	router.Intercept = a.intercept
	router.LocalDeliver = a.localDeliver
	return a
}

// Router returns the underlying forwarding element.
func (a *Agent) Router() *netsim.Router { return a.router }

// Cache exposes the binding cache (read-mostly; tests and traces).
func (a *Agent) Cache() *BindingCache { return a.cache }

// Intercepted counts packets tunnelled to a care-of address.
func (a *Agent) Intercepted() uint64 { return a.intercepted }

// NoBinding counts managed-prefix packets dropped for lack of a binding.
func (a *Agent) NoBinding() uint64 { return a.noBinding }

// BicastPackets counts SafetyNet duplicates emitted on the wired side.
func (a *Agent) BicastPackets() uint64 { return a.bicastPackets }

// BicastBytes counts the wire bytes of the emitted duplicates (tunnel
// header included).
func (a *Agent) BicastBytes() uint64 { return a.bicastBytes }

// BicastActive reports whether the key currently has an unexpired
// duplication entry (tests and traces).
func (a *Agent) BicastActive(key inet.Addr) bool {
	e, ok := a.bicast.Get(key)
	return ok && e.expire > a.engine.Now()
}

// Register installs a binding directly (used for initial attachment, where
// the thesis' scenarios start with the host already registered).
func (a *Agent) Register(key, coa inet.Addr, lifetime sim.Time) {
	a.cache.Update(key, coa, 0, lifetime, a.engine.Now())
}

// intercept tunnels packets addressed into the managed prefix toward the
// bound care-of address, duplicating toward the bicast target when a
// SafetyNet handoff is in progress.
func (a *Agent) intercept(in *netsim.Iface, pkt *inet.Packet) bool {
	if pkt.Dst.Net != a.cfg.ManagedNet || pkt.Dst == a.router.Addr() {
		return false
	}
	b, ok := a.cache.Lookup(pkt.Dst, a.engine.Now())
	if !ok {
		a.noBinding++
		return true // consumed: no route for an unbound managed address
	}
	a.intercepted++
	if a.bicast.Len() > 0 {
		a.maybeBicast(pkt, b.CoA)
	}
	a.router.Forward(pkt.EncapsulateInto(a.cfg.Alloc(), a.router.Addr(), b.CoA))
	return true
}

// maybeBicast emits the SafetyNet duplicate of pkt toward the registered
// bicast target. The copy of a plain packet and the tunnel wrapper come
// from Alloc, keeping the duplicate path allocation-free.
func (a *Agent) maybeBicast(pkt *inet.Packet, primary inet.Addr) {
	e, ok := a.bicast.Get(pkt.Dst)
	if !ok {
		return
	}
	if e.expire <= a.engine.Now() {
		a.bicast.Delete(pkt.Dst)
		return
	}
	if e.ncoa == primary {
		return // binding already moved; a duplicate would be a self-copy
	}
	var dup *inet.Packet
	if pkt.Inner == nil {
		dup = a.cfg.Alloc()
		*dup = *pkt
	} else {
		dup = pkt.Clone()
	}
	wrap := dup.EncapsulateInto(a.cfg.Alloc(), a.router.Addr(), e.ncoa)
	a.bicastPackets++
	a.bicastBytes += uint64(wrap.Size)
	if a.OnBicast != nil {
		a.OnBicast(wrap)
	}
	a.router.Forward(wrap)
}

// localDeliver processes mobility signaling addressed to the agent itself:
// binding updates and SafetyNet bicast requests.
func (a *Agent) localDeliver(in *netsim.Iface, pkt *inet.Packet) bool {
	switch msg := pkt.Payload.(type) {
	case *BindingUpdate:
		now := a.engine.Now()
		granted := msg.Lifetime
		if a.cfg.MaxLifetime > 0 && granted > a.cfg.MaxLifetime {
			granted = a.cfg.MaxLifetime
		}
		accepted := true
		if msg.Deregister() {
			a.cache.Remove(msg.Key)
		} else {
			accepted = a.cache.Update(msg.Key, msg.CoA, msg.Seq, granted, now)
		}
		if accepted {
			// The handoff is over once the binding moves: stop duplicating.
			a.bicast.Delete(msg.Key)
		}
		ack := &inet.Packet{
			Src:     a.router.Addr(),
			Dst:     pkt.Src,
			Proto:   inet.ProtoControl,
			Size:    BindingAckSize,
			Created: now,
			Payload: &BindingAck{Key: msg.Key, Seq: msg.Seq, Accepted: accepted, Lifetime: granted},
		}
		a.router.Forward(ack)
		return true
	case *BicastRequest:
		// Bicast lifetimes honour the same cap as binding grants: a host
		// must not be able to keep the anchor duplicating longer than it
		// could keep a binding alive.
		granted := msg.Lifetime
		if a.cfg.MaxLifetime > 0 && granted > a.cfg.MaxLifetime {
			granted = a.cfg.MaxLifetime
		}
		a.bicast.Set(msg.Key, bicastEntry{ncoa: msg.NCoA, expire: a.engine.Now() + granted})
		return true
	}
	return false // not ours; router handles tunnels etc.
}
