package mip

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// bicastTopology extends the MAP testbed with a second access router and
// host standing in for the NCoA side of a SafetyNet handoff:
//
//	cn -- map -- ar  -- mh   (primary leg, net 2)
//	        \--- ar2 -- mh2  (bicast leg,  net 3)
type bicastTopology struct {
	engine *sim.Engine
	topo   *netsim.Topology
	cn     *netsim.Host
	agent  *Agent
	mh     *netsim.Host
	mh2    *netsim.Host
	rcoa   inet.Addr
}

func newBicastTopology(t testing.TB, pooled bool) *bicastTopology {
	t.Helper()
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	cn := netsim.NewHost("cn", inet.Addr{Net: 1, Host: 1})
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: 50, Host: 1})
	ar := netsim.NewRouter("ar", inet.Addr{Net: 2, Host: 1})
	ar2 := netsim.NewRouter("ar2", inet.Addr{Net: 3, Host: 1})
	mh := netsim.NewHost("mh", inet.Addr{Net: 2, Host: 7})
	mh2 := netsim.NewHost("mh2", inet.Addr{Net: 3, Host: 7})

	topo.Connect(cn, mapRouter, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(mapRouter, ar, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(mapRouter, ar2, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(ar, mh, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.Connect(ar2, mh2, netsim.LinkConfig{Delay: sim.Millisecond})
	topo.ClaimNet(1, cn)
	topo.ClaimNet(2, ar)
	topo.ClaimNet(3, ar2)
	topo.ClaimNet(50, mapRouter)
	if err := topo.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	ar.AddPrefixRoute(2, ar.Ifaces()[1])
	ar2.AddPrefixRoute(3, ar2.Ifaces()[1])

	cfg := AgentConfig{ManagedNet: 50}
	if pooled {
		cfg.Alloc = topo.AllocPacket
	}
	agent := NewAgent(e, mapRouter, cfg)
	return &bicastTopology{
		engine: e, topo: topo, cn: cn, agent: agent, mh: mh, mh2: mh2,
		rcoa: inet.Addr{Net: 50, Host: 7},
	}
}

// requestBicast installs the duplication entry the way a mobile host does:
// a BicastRequest control packet delivered to the anchor.
func (w *bicastTopology) requestBicast(t testing.TB, lifetime sim.Time) {
	t.Helper()
	w.mh.Send(&inet.Packet{
		Src: w.mh.Addr(), Dst: w.agent.Router().Addr(), Proto: inet.ProtoControl,
		Size:    BicastRequestSize,
		Payload: &BicastRequest{Key: w.rcoa, NCoA: w.mh2.Addr(), Lifetime: lifetime},
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func TestAgentBicastDuplicatesTowardNCoA(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		name := "clone"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			w := newBicastTopology(t, pooled)
			w.agent.Register(w.rcoa, w.mh.Addr(), 100*sim.Second)
			w.requestBicast(t, 10*sim.Second)
			if !w.agent.BicastActive(w.rcoa) {
				t.Fatal("bicast entry not installed by BicastRequest")
			}

			var primary, dup *inet.Packet
			w.mh.Receive = func(pkt *inet.Packet) { primary = pkt }
			w.mh2.Receive = func(pkt *inet.Packet) { dup = pkt }
			w.cn.Send(&inet.Packet{
				Src: w.cn.Addr(), Dst: w.rcoa, Proto: inet.ProtoUDP,
				Flow: 1, Seq: 9, Size: 160,
			})
			if err := w.engine.RunAll(); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			if primary == nil || dup == nil {
				t.Fatalf("primary=%v dup=%v, want both legs delivered", primary, dup)
			}
			for _, pkt := range []*inet.Packet{primary, dup} {
				if pkt.Proto != inet.ProtoTunnel {
					t.Fatalf("delivered proto = %v, want tunnel", pkt.Proto)
				}
				inner := pkt.Innermost()
				if inner.Seq != 9 || inner.Flow != 1 || inner.Dst != w.rcoa {
					t.Fatalf("inner = %+v, want seq 9 flow 1 dst rcoa", inner)
				}
			}
			if dup.Dst != w.mh2.Addr() {
				t.Fatalf("duplicate wrapper dst = %v, want NCoA", dup.Dst)
			}
			if got := w.agent.BicastPackets(); got != 1 {
				t.Fatalf("BicastPackets = %d, want 1", got)
			}
			if got := w.agent.BicastBytes(); got != 160+inet.TunnelHeaderSize {
				t.Fatalf("BicastBytes = %d, want %d", got, 160+inet.TunnelHeaderSize)
			}
		})
	}
}

func TestAgentBicastEndsOnAcceptedBindingUpdate(t *testing.T) {
	w := newBicastTopology(t, false)
	w.agent.Register(w.rcoa, w.mh.Addr(), 100*sim.Second)
	w.requestBicast(t, 10*sim.Second)

	// The host completes the handoff: the accepted update moves the binding
	// to the NCoA and must tear the duplication entry down with it.
	w.mh2.Send(&inet.Packet{
		Src: w.mh2.Addr(), Dst: w.agent.Router().Addr(), Proto: inet.ProtoControl,
		Size:    BindingUpdateSize,
		Payload: &BindingUpdate{Key: w.rcoa, CoA: w.mh2.Addr(), Seq: 1, Lifetime: 100 * sim.Second},
	})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if w.agent.BicastActive(w.rcoa) {
		t.Fatal("bicast entry survived the accepted binding update")
	}

	deliveries := 0
	w.mh2.Receive = func(pkt *inet.Packet) { deliveries++ }
	w.cn.Send(&inet.Packet{Src: w.cn.Addr(), Dst: w.rcoa, Proto: inet.ProtoUDP, Size: 160})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if deliveries != 1 {
		t.Fatalf("%d deliveries after the binding moved, want exactly 1 (no self-copy)", deliveries)
	}
	if w.agent.BicastPackets() != 0 {
		t.Fatalf("BicastPackets = %d, want 0", w.agent.BicastPackets())
	}
}

func TestAgentBicastExpires(t *testing.T) {
	w := newBicastTopology(t, false)
	w.agent.Register(w.rcoa, w.mh.Addr(), 100*sim.Second)
	w.requestBicast(t, sim.Second)

	if err := w.engine.Run(2 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.agent.BicastActive(w.rcoa) {
		t.Fatal("bicast entry reported active past its lifetime")
	}
	dups := 0
	w.mh2.Receive = func(pkt *inet.Packet) { dups++ }
	w.cn.Send(&inet.Packet{Src: w.cn.Addr(), Dst: w.rcoa, Proto: inet.ProtoUDP, Size: 160})
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if dups != 0 || w.agent.BicastPackets() != 0 {
		t.Fatalf("expired entry still duplicated (%d deliveries, %d counted)", dups, w.agent.BicastPackets())
	}
}

// bicastHotPath drives one duplicate emission end to end: the anchor
// copies a template packet from the pool, wraps it, and forwards it to the
// NCoA host, which recycles the chain. The template itself is never sent,
// isolating the duplicate path from the primary leg's Encapsulate.
func bicastHotPath(t testing.TB, w *bicastTopology, template *inet.Packet) {
	w.agent.maybeBicast(template, w.mh.Addr())
	if err := w.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func newBicastHotPathBed(t testing.TB) (*bicastTopology, *inet.Packet) {
	w := newBicastTopology(t, true)
	w.agent.Register(w.rcoa, w.mh.Addr(), 1<<62)
	w.requestBicast(t, 1<<62)
	w.mh2.Receive = func(pkt *inet.Packet) {
		w.topo.ReleasePacket(pkt.Inner)
		w.topo.ReleasePacket(pkt)
	}
	template := &inet.Packet{
		Src: inet.Addr{Net: 1, Host: 1}, Dst: w.rcoa,
		Proto: inet.ProtoUDP, Flow: 1, Size: 160,
	}
	return w, template
}

// TestBicastForwardZeroAlloc pins the SafetyNet fan-out hot path: in
// steady state, duplicating one packet — pooled copy, pooled tunnel
// wrapper, wired delivery, recycle — allocates nothing.
func TestBicastForwardZeroAlloc(t *testing.T) {
	w, template := newBicastHotPathBed(t)
	for i := 0; i < 64; i++ {
		template.Seq++
		bicastHotPath(t, w, template)
	}
	if got := w.agent.BicastPackets(); got != 64 {
		t.Fatalf("warmup emitted %d duplicates, want 64", got)
	}
	if avg := testing.AllocsPerRun(200, func() {
		template.Seq++
		bicastHotPath(t, w, template)
	}); avg != 0 {
		t.Fatalf("bicast duplicate path allocates %.2f times per packet; want 0", avg)
	}
}

// TestTunnelForwardZeroAlloc pins the anchor's primary tunnel: in steady
// state, one pooled packet from the correspondent — MAP intercept, pooled
// tunnel wrapper, wired hops to the care-of address, decapsulation and
// release of both layers — allocates nothing.
func TestTunnelForwardZeroAlloc(t *testing.T) {
	w := newBicastTopology(t, true)
	w.agent.Register(w.rcoa, w.mh.Addr(), 1<<62)
	delivered := 0
	w.mh.Receive = func(pkt *inet.Packet) {
		inner := pkt.Decapsulate()
		if inner == nil || inner.Proto != inet.ProtoUDP {
			t.Fatalf("care-of address received %v, want a tunnelled UDP packet", pkt)
		}
		delivered++
		w.topo.ReleasePacket(inner)
		w.topo.ReleasePacket(pkt)
	}
	var seq uint32
	send := func() {
		seq++
		pkt := w.topo.AllocPacket()
		pkt.Src = w.cn.Addr()
		pkt.Dst = w.rcoa
		pkt.Proto = inet.ProtoUDP
		pkt.Flow = 1
		pkt.Seq = seq
		pkt.Size = 160
		w.cn.Send(pkt)
		if err := w.engine.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("tunnel forward path allocates %.2f times per packet; want 0", avg)
	}
	if st := w.topo.PoolStats(); delivered != 64+201 || st.Gets != st.Puts {
		t.Fatalf("delivered %d packets, pool %+v; want 265 delivered and every packet recycled", delivered, st)
	}
}

// BenchmarkBicastForward measures the anchor's duplicate emission end to
// end (pooled copy + wrapper, one wired hop, recycle). The CI gate pins
// its allocs/op at zero.
func BenchmarkBicastForward(b *testing.B) {
	w, template := newBicastHotPathBed(b)
	for i := 0; i < 64; i++ {
		template.Seq++
		bicastHotPath(b, w, template)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		template.Seq++
		bicastHotPath(b, w, template)
	}
}
