package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// arHarness wires par -- nar over one link, with a stub "ap" host hanging
// off each router so host routes have somewhere to point. The mobile host
// is simulated by injecting control packets directly.
type arHarness struct {
	engine   *sim.Engine
	topo     *netsim.Topology
	par, nar *AccessRouter
	parAP    *netsim.Host
	narAP    *netsim.Host
	pcoa     inet.Addr
}

func newARHarness(t testing.TB, cfg ARConfig) *arHarness {
	t.Helper()
	engine := sim.NewEngine()
	topo := netsim.NewTopology(engine)
	parRouter := netsim.NewRouter("par", inet.Addr{Net: 2, Host: 1})
	narRouter := netsim.NewRouter("nar", inet.Addr{Net: 3, Host: 1})
	parAP := netsim.NewHost("par-ap", inet.Addr{Net: 90, Host: 1})
	narAP := netsim.NewHost("nar-ap", inet.Addr{Net: 91, Host: 1})

	topo.Connect(parRouter, narRouter, netsim.LinkConfig{Delay: 2 * sim.Millisecond})
	parAPLink := topo.Connect(parRouter, parAP, netsim.LinkConfig{Delay: sim.Millisecond})
	narAPLink := topo.Connect(narRouter, narAP, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.ClaimNet(90, parAP)
	topo.ClaimNet(91, narAP)
	topo.ClaimNet(2, parRouter)
	topo.ClaimNet(3, narRouter)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}

	dir := NewDirectory()
	par := NewAccessRouter(engine, parRouter, 2, dir, cfg)
	nar := NewAccessRouter(engine, narRouter, 3, dir, cfg)
	par.AddAP("par-ap", parAPLink.A())
	nar.AddAP("nar-ap", narAPLink.A())

	return &arHarness{
		engine: engine, topo: topo,
		par: par, nar: nar, parAP: parAP, narAP: narAP,
		pcoa: inet.Addr{Net: 2, Host: 7},
	}
}

// solicit injects an RtSolPr at the PAR as if the host had sent it.
func (h *arHarness) solicit(size uint16) {
	h.par.Router().HandlePacket(nil, &inet.Packet{
		Src: h.pcoa, Dst: h.par.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.RtSolPr{
			MH: h.pcoa, TargetAP: "nar-ap",
			BI: &fho.BufferInit{Size: size, Start: h.engine.Now() + sim.Second, Lifetime: 5 * sim.Second},
		},
	})
}

func (h *arHarness) fbu() {
	h.par.Router().HandlePacket(nil, &inet.Packet{
		Src: h.pcoa, Dst: h.par.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.FBU{PCoA: h.pcoa, NCoA: inet.Addr{Net: 3, Host: 7}},
	})
}

func (h *arHarness) data(class inet.Class, seq uint32) *inet.Packet {
	return &inet.Packet{
		Src: inet.Addr{Net: 1, Host: 1}, Dst: h.pcoa,
		Proto: inet.ProtoUDP, Class: class, Flow: 1, Seq: seq, Size: 160,
		Created: h.engine.Now(),
	}
}

func (h *arHarness) run(t testing.TB, d sim.Time) {
	t.Helper()
	if err := h.engine.Run(h.engine.Now() + d); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestARNegotiationCreatesBothSessions(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2})
	h.solicit(20)
	h.run(t, 100*sim.Millisecond)

	if h.par.Sessions() != 1 || h.nar.Sessions() != 1 {
		t.Fatalf("sessions: par=%d nar=%d, want 1/1", h.par.Sessions(), h.nar.Sessions())
	}
	if h.par.Pool().Reserved() != 20 || h.nar.Pool().Reserved() != 20 {
		t.Fatalf("reservations: par=%d nar=%d, want 20/20",
			h.par.Pool().Reserved(), h.nar.Pool().Reserved())
	}
	// The PrRtAdv reached the (stub) host with both grants.
	// It is routed to the PCoA which has no resident route here, so it
	// lands at the PAR's no-route counter; the message flow itself was
	// already asserted via ControlSent.
	if h.par.ControlSent(fho.KindHI) != 1 || h.nar.ControlSent(fho.KindHAck) != 1 {
		t.Fatal("HI/HAck exchange incomplete")
	}
	if h.par.ControlSent(fho.KindPrRtAdv) != 1 {
		t.Fatal("PrRtAdv missing")
	}
}

func TestARRedirectBuffersByClass(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2})
	drops := make(map[string]int)
	h.par.OnDrop = func(pkt *inet.Packet, where string) { drops[where]++ }
	h.nar.OnDrop = func(pkt *inet.Packet, where string) { drops[where]++ }

	h.solicit(4)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 10*sim.Millisecond)

	// Best effort (buffered at PAR above α=2): capacity 4, admits 2.
	for i := uint32(0); i < 5; i++ {
		h.par.Router().HandlePacket(nil, h.data(inet.ClassBestEffort, i))
	}
	if drops[DropAtPAR] != 3 {
		t.Fatalf("BE drops at PAR = %d, want 3 (α reserve)", drops[DropAtPAR])
	}

	// Real time flows to the NAR's buffer (4 slots) with drop-head.
	for i := uint32(10); i < 17; i++ {
		h.par.Router().HandlePacket(nil, h.data(inet.ClassRealTime, i))
	}
	h.run(t, 100*sim.Millisecond)
	if drops[DropAtNAR] != 3 {
		t.Fatalf("RT evictions at NAR = %d, want 3 (7 offered, 4 slots)", drops[DropAtNAR])
	}
}

func TestARCase4DropsBestEffortOnly(t *testing.T) {
	// Pool size zero: no grants anywhere (Case 4).
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 0})
	policy := 0
	h.par.OnDrop = func(pkt *inet.Packet, where string) {
		if where == DropPolicy {
			policy++
		}
	}
	h.solicit(10)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 10*sim.Millisecond)

	h.par.Router().HandlePacket(nil, h.data(inet.ClassBestEffort, 1))
	h.par.Router().HandlePacket(nil, h.data(inet.ClassRealTime, 2))
	h.par.Router().HandlePacket(nil, h.data(inet.ClassHighPriority, 3))
	h.run(t, 100*sim.Millisecond)

	if policy != 1 {
		t.Fatalf("policy drops = %d, want 1 (only best effort)", policy)
	}
	// RT and HP were tunnelled to the NAR (forward-only) and transmitted
	// toward its AP.
	if got := h.nar.Router().NoRouteDrops(); got != 0 {
		t.Fatalf("NAR no-route drops = %d", got)
	}
}

func TestARReverseTunnel(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40})
	h.solicit(10)
	h.run(t, 100*sim.Millisecond)

	// An uplink packet sourced from the PCoA arriving at the NAR from its
	// AP side must be tunnelled back to the PAR.
	var narToAP *netsim.Iface
	for _, ifc := range h.nar.Router().Ifaces() {
		if ifc.Peer() == netsim.Node(h.narAP) {
			narToAP = ifc
		}
	}
	uplink := &inet.Packet{
		Src: h.pcoa, Dst: inet.Addr{Net: 1, Host: 1},
		Proto: inet.ProtoUDP, Size: 160,
	}
	// Count tunnels arriving at the PAR.
	tunnels := 0
	prev := h.par.Router().LocalDeliver
	h.par.Router().LocalDeliver = func(in *netsim.Iface, pkt *inet.Packet) bool {
		if pkt.Proto == inet.ProtoTunnel {
			tunnels++
			return true
		}
		return prev(in, pkt)
	}
	h.nar.Router().HandlePacket(narToAP.PeerIface().PeerIface(), uplink)
	h.run(t, 100*sim.Millisecond)
	if tunnels != 1 {
		t.Fatalf("reverse tunnels at PAR = %d, want 1", tunnels)
	}
}

func TestARBufferFullMessageFlipsOverflow(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 0})
	h.solicit(10)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 10*sim.Millisecond)

	// Inject BufferFull directly (the backstop path).
	h.par.Router().HandlePacket(nil, &inet.Packet{
		Src: h.nar.Addr(), Dst: h.par.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.BufferFull{PCoA: h.pcoa},
	})
	// High-priority packets now buffer at the PAR instead of the NAR.
	before := h.nar.ControlSent(fho.KindHAck) // unrelated; force evaluation
	_ = before
	for i := uint32(0); i < 3; i++ {
		h.par.Router().HandlePacket(nil, h.data(inet.ClassHighPriority, i))
	}
	h.run(t, 50*sim.Millisecond)
	// Release and observe the PAR draining three packets toward the NAR.
	h.par.Router().HandlePacket(nil, &inet.Packet{
		Src: h.nar.Addr(), Dst: h.par.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.BF{PCoA: h.pcoa},
	})
	h.run(t, 50*sim.Millisecond)
	if h.par.Sessions() != 0 {
		t.Fatalf("PAR session not closed by BF")
	}
	if h.par.Pool().Reserved() != 0 {
		t.Fatalf("PAR reservation leaked: %d", h.par.Pool().Reserved())
	}
}

func TestARUnknownTargetRefused(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40})
	h.par.Router().HandlePacket(nil, &inet.Packet{
		Src: h.pcoa, Dst: h.par.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.RtSolPr{MH: h.pcoa, TargetAP: "nowhere",
			BI: &fho.BufferInit{Size: 10, Start: sim.Second, Lifetime: 5 * sim.Second}},
	})
	h.run(t, 50*sim.Millisecond)
	if h.par.Sessions() != 0 {
		t.Fatal("session created for unknown target")
	}
	if h.par.ControlSent(fho.KindPrRtAdv) != 1 {
		t.Fatal("refusal PrRtAdv not sent")
	}
	if h.par.Pool().Reserved() != 0 {
		t.Fatal("reservation leaked on refusal")
	}
}

func TestARExpireReleasesEverything(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 0})
	drops := 0
	h.par.OnDrop = func(pkt *inet.Packet, where string) {
		if where == DropOnLifetime {
			drops++
		}
	}
	h.solicit(10)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 10*sim.Millisecond)
	h.par.Router().HandlePacket(nil, h.data(inet.ClassBestEffort, 1))
	h.par.Router().HandlePacket(nil, h.data(inet.ClassBestEffort, 2))

	// The BI lifetime was 5 s; never release.
	h.run(t, 10*sim.Second)
	if drops != 2 {
		t.Fatalf("lifetime drops = %d, want 2", drops)
	}
	if h.par.Sessions() != 0 || h.par.Pool().Reserved() != 0 {
		t.Fatalf("state leaked: sessions=%d reserved=%d",
			h.par.Sessions(), h.par.Pool().Reserved())
	}
	if h.nar.Sessions() != 0 || h.nar.Pool().Reserved() != 0 {
		t.Fatalf("NAR state leaked: sessions=%d reserved=%d",
			h.nar.Sessions(), h.nar.Pool().Reserved())
	}
}

func TestARDuplicateSolicitResendsHI(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40})
	h.solicit(10)
	h.run(t, 50*sim.Millisecond)
	h.solicit(10) // retry
	h.run(t, 50*sim.Millisecond)
	if got := h.par.ControlSent(fho.KindHI); got != 2 {
		t.Fatalf("HI sent %d times, want 2 (idempotent retry)", got)
	}
	if h.par.Pool().Reserved() != 10 {
		t.Fatalf("duplicate solicit changed the reservation: %d", h.par.Pool().Reserved())
	}
	if got := h.nar.ControlSent(fho.KindHAck); got != 2 {
		t.Fatalf("HAck sent %d times, want 2", got)
	}
	if h.nar.Pool().Reserved() != 10 {
		t.Fatalf("duplicate HI changed the NAR reservation: %d", h.nar.Pool().Reserved())
	}
}

// dropKinds drops the first n control messages of the given kinds crossing
// the interface, returning a counter of how many it ate.
func dropKinds(ifc *netsim.Iface, n int, kinds ...fho.Kind) *int {
	dropped := 0
	ifc.Impair = func(pkt *inet.Packet) bool {
		if dropped >= n {
			return false
		}
		for _, k := range kinds {
			if msg, ok := pkt.Payload.(fho.Message); ok && msg.Kind() == k {
				dropped++
				return true
			}
		}
		return false
	}
	return &dropped
}

// narToPARIface returns the NAR's interface toward the PAR.
func (h *arHarness) narToPARIface() *netsim.Iface {
	for _, ifc := range h.nar.Router().Ifaces() {
		if ifc.Peer() == netsim.Node(h.par.Router()) {
			return ifc
		}
	}
	return nil
}

// Regression: a BI with Lifetime <= 0 used to arm no lifetime timer at all,
// leaking the session (and its reservation) forever if the release
// signaling never arrived. The default lifetime must backstop it.
func TestARZeroLifetimeBIStillExpires(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40})
	h.par.Router().HandlePacket(nil, &inet.Packet{
		Src: h.pcoa, Dst: h.par.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.RtSolPr{
			MH: h.pcoa, TargetAP: "nar-ap",
			BI: &fho.BufferInit{Size: 10, Start: h.engine.Now() + sim.Second},
		},
	})
	h.run(t, 100*sim.Millisecond)
	if h.par.Sessions() != 1 || h.nar.Sessions() != 1 {
		t.Fatalf("sessions: par=%d nar=%d, want 1/1", h.par.Sessions(), h.nar.Sessions())
	}
	// Never send the FBU or the FNA: only the lifetime backstop can clean
	// up. The zero-lifetime BI must fall back to DefaultSessionLifetime.
	h.run(t, DefaultSessionLifetime+sim.Second)
	if h.par.Sessions() != 0 || h.nar.Sessions() != 0 {
		t.Fatalf("zero-lifetime sessions leaked: par=%d nar=%d",
			h.par.Sessions(), h.nar.Sessions())
	}
	if h.par.Pool().Reserved() != 0 || h.nar.Pool().Reserved() != 0 {
		t.Fatalf("reservations leaked: par=%d nar=%d",
			h.par.Pool().Reserved(), h.nar.Pool().Reserved())
	}
}

func TestARHIRetransmitRecoversLostHAck(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40})
	dropped := dropKinds(h.narToPARIface(), 1, fho.KindHAck)
	h.solicit(10)
	h.run(t, sim.Second)

	if *dropped != 1 {
		t.Fatalf("HAck drops = %d, want 1", *dropped)
	}
	if got := h.par.ControlSent(fho.KindHI); got != 2 {
		t.Fatalf("HI sent %d times, want 2 (original + one retransmission)", got)
	}
	if got := h.par.ControlSent(fho.KindPrRtAdv); got != 1 {
		t.Fatalf("PrRtAdv sent %d times, want 1", got)
	}
	if h.par.Sessions() != 1 || h.nar.Sessions() != 1 {
		t.Fatalf("sessions: par=%d nar=%d, want 1/1", h.par.Sessions(), h.nar.Sessions())
	}
	if h.par.SignalingFailures() != 0 {
		t.Fatalf("SignalingFailures = %d, want 0", h.par.SignalingFailures())
	}
}

func TestARHIExhaustionRefusesAndCleansUp(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40})
	dropped := dropKinds(h.narToPARIface(), 1000, fho.KindHAck)
	h.solicit(10)
	// Tries exhaust at 150 + 300 + 600 = 1050 ms.
	h.run(t, 2*sim.Second)

	if got := h.par.ControlSent(fho.KindHI); got != uint64(DefaultMaxSignalTries) {
		t.Fatalf("HI sent %d times, want %d", got, DefaultMaxSignalTries)
	}
	if *dropped != DefaultMaxSignalTries {
		t.Fatalf("HAck drops = %d, want %d", *dropped, DefaultMaxSignalTries)
	}
	if h.par.SignalingFailures() != 1 {
		t.Fatalf("SignalingFailures = %d, want 1", h.par.SignalingFailures())
	}
	if h.par.Sessions() != 0 || h.par.Pool().Reserved() != 0 {
		t.Fatalf("PAR state leaked after exhaustion: sessions=%d reserved=%d",
			h.par.Sessions(), h.par.Pool().Reserved())
	}
	// The host was told (refusal PrRtAdv) so it can fall back.
	if got := h.par.ControlSent(fho.KindPrRtAdv); got != 1 {
		t.Fatalf("refusal PrRtAdv sent %d times, want 1", got)
	}
	// The NAR's orphaned session (its HAcks vanished) lapses with the BI
	// lifetime from the solicitation.
	h.run(t, 10*sim.Second)
	if h.nar.Sessions() != 0 || h.nar.Pool().Reserved() != 0 {
		t.Fatalf("NAR state leaked: sessions=%d reserved=%d",
			h.nar.Sessions(), h.nar.Pool().Reserved())
	}
}

func TestSchemeOpDualTreatsAllAsHP(t *testing.T) {
	avail := buffer.Availability{NAR: true, PAR: true}
	for _, c := range inet.Classes {
		if got := SchemeDual.Op(avail, c); got != buffer.OpBufferBoth {
			t.Errorf("dual Op(%v) = %v, want buffer-at-both", c, got)
		}
	}
}

// TestControlPacketsSizedByTheirEncoding checks the routers' control
// sizing end to end: every control packet a router sends during a
// negotiated handoff is ControlHeaderSize plus its encoded length.
func TestControlPacketsSizedByTheirEncoding(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2})
	kinds := make(map[fho.Kind]int)
	for _, r := range []*AccessRouter{h.par, h.nar} {
		for _, ifc := range r.Router().Ifaces() {
			ifc.Impair = func(pkt *inet.Packet) bool {
				if m, ok := pkt.Payload.(fho.Message); ok {
					kinds[m.Kind()]++
					if want := fho.ControlHeaderSize + len(fho.Encode(m)); pkt.Size != want {
						t.Errorf("%s sent with size %d, want %d", m.Kind(), pkt.Size, want)
					}
				}
				return false
			}
		}
	}
	h.solicit(20)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 100*sim.Millisecond)
	for _, k := range []fho.Kind{fho.KindHI, fho.KindHAck, fho.KindFBAck} {
		if kinds[k] == 0 {
			t.Errorf("no %s seen on the wire (saw %v)", k, kinds)
		}
	}
}
