package core

import (
	"testing"

	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// fna injects the host's attach announcement at the NAR, requesting
// immediate buffer release and the BF relay toward the PAR.
func (h *arHarness) fna() {
	h.nar.Router().HandlePacket(nil, &inet.Packet{
		Src: inet.Addr{Net: 3, Host: 7}, Dst: h.nar.Addr(), Proto: inet.ProtoControl, Size: 64,
		Payload: &fho.FNA{PCoA: h.pcoa, NCoA: inet.Addr{Net: 3, Host: 7}, BufferForward: true},
	})
}

// cycle drives one complete handoff: solicit, redirect, buffer a burst,
// attach, release, and the NAR grace close.
func (h *arHarness) cycle(t testing.TB, packets uint32) {
	h.solicit(8)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 10*sim.Millisecond)
	for j := uint32(0); j < packets; j++ {
		h.par.Router().HandlePacket(nil, h.data(inet.ClassRealTime, j))
	}
	h.run(t, 10*sim.Millisecond)
	h.fna()
	h.run(t, 2*sim.Second) // covers BF propagation and the 1 s grace
}

// TestARSessionRecycling runs several complete handoffs for the same host
// and checks that session objects and buffer slabs are recycled rather
// than reallocated, with no state bleeding between incarnations.
func TestARSessionRecycling(t *testing.T) {
	h := newARHarness(t, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2})
	for i := 0; i < 3; i++ {
		h.cycle(t, 8)
		if h.par.Sessions() != 0 || h.nar.Sessions() != 0 {
			t.Fatalf("cycle %d: sessions leaked: par=%d nar=%d", i, h.par.Sessions(), h.nar.Sessions())
		}
		if h.par.Pool().Reserved() != 0 || h.nar.Pool().Reserved() != 0 {
			t.Fatalf("cycle %d: reservations leaked: par=%d nar=%d",
				i, h.par.Pool().Reserved(), h.nar.Pool().Reserved())
		}
		if len(h.par.sessFree) != 1 || len(h.nar.sessFree) != 1 {
			t.Fatalf("cycle %d: free lists hold %d/%d sessions, want 1/1 (recycled)",
				i, len(h.par.sessFree), len(h.nar.sessFree))
		}
	}
	if got := h.nar.PoolGrants(); got != 3 {
		t.Fatalf("NAR PoolGrants=%d, want 3", got)
	}
	if got := h.nar.PeakGrantedSessions(); got != 1 {
		t.Fatalf("NAR PeakGrantedSessions=%d, want 1 (handoffs were sequential)", got)
	}
	// The recycled session must be the same object every time.
	first := h.nar.sessFree[0]
	h.cycle(t, 4)
	if h.nar.sessFree[0] != first {
		t.Fatal("NAR session object was reallocated instead of recycled")
	}
}

// TestARPacedDrainDeliversOnSchedule pins the paced-drain rework: one
// self-rescheduling job releases the NAR backlog at DrainInterval spacing,
// and the job itself is recycled afterwards.
func TestARPacedDrainDeliversOnSchedule(t *testing.T) {
	const interval = 5 * sim.Millisecond
	h := newARHarness(t, ARConfig{
		Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2, DrainInterval: interval,
	})
	h.solicit(4)
	h.run(t, 100*sim.Millisecond)
	h.fbu()
	h.run(t, 10*sim.Millisecond)
	for j := uint32(0); j < 4; j++ {
		h.par.Router().HandlePacket(nil, h.data(inet.ClassRealTime, j))
	}
	h.run(t, 10*sim.Millisecond)

	// Count data packets the NAR releases. The PCoA host route installed
	// during handleHI points at the NAR's AP, so released packets leave
	// through the AP interface.
	var sendTimes []sim.Time
	var ifc *netsim.Iface
	for _, cand := range h.nar.Router().Ifaces() {
		if cand.Peer() == netsim.Node(h.narAP) {
			ifc = cand
		}
	}
	if ifc == nil {
		t.Fatal("no NAR->AP interface found")
	}
	ifc.Impair = func(pkt *inet.Packet) bool {
		if pkt.Proto != inet.ProtoControl {
			sendTimes = append(sendTimes, h.engine.Now())
		}
		return false
	}
	start := h.engine.Now()
	h.fna()
	h.run(t, 100*sim.Millisecond)

	if len(sendTimes) != 4 {
		t.Fatalf("released %d packets, want 4", len(sendTimes))
	}
	for i, at := range sendTimes {
		if want := start + sim.Time(i)*interval; at != want {
			t.Fatalf("packet %d released at %v, want %v", i, at, want)
		}
	}
	if len(h.nar.drainFree) != 1 {
		t.Fatalf("drain job not recycled: free list holds %d", len(h.nar.drainFree))
	}
	h.run(t, 2*sim.Second)
	if h.nar.Sessions() != 0 {
		t.Fatalf("NAR session not closed after paced drain")
	}
}

// TestARConfigValidate covers the α-bounds satellite at the config level.
func TestARConfigValidate(t *testing.T) {
	if err := (ARConfig{PoolSize: 40, Alpha: 2}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (ARConfig{PoolSize: 0, Alpha: 0}).Validate(); err != nil {
		t.Fatalf("bufferless config rejected: %v", err)
	}
	for _, bad := range []ARConfig{
		{PoolSize: 40, Alpha: 40},
		{PoolSize: 40, Alpha: 41},
		{PoolSize: -1},
		{PoolSize: 10, Alpha: -3},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted a misconfiguration", bad)
		}
	}
}

// TestDrainTunnelZeroAlloc pins the PAR→NAR drain tunnel: in steady state,
// releasing one pooled buffered packet toward the peer router — pooled
// tunnel wrapper from ARConfig.Alloc, the inter-router hop, decapsulation
// at the NAR with the wrapper handed to ARConfig.Release, and the hop on
// to the inner destination — allocates nothing.
func TestDrainTunnelZeroAlloc(t *testing.T) {
	var topo *netsim.Topology
	h := newARHarness(t, ARConfig{
		Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2,
		Alloc:   func() *inet.Packet { return topo.AllocPacket() },
		Release: func(pkt *inet.Packet) { topo.ReleasePacket(pkt) },
	})
	topo = h.topo
	delivered := 0
	h.narAP.Receive = func(pkt *inet.Packet) {
		if pkt.Proto != inet.ProtoUDP {
			t.Fatalf("NAR forwarded %v, want the decapsulated UDP packet", pkt)
		}
		delivered++
		topo.ReleasePacket(pkt)
	}
	var seq uint32
	send := func() {
		seq++
		pkt := topo.AllocPacket()
		pkt.Src = inet.Addr{Net: 1, Host: 1}
		pkt.Dst = h.narAP.Addr()
		pkt.Proto = inet.ProtoUDP
		pkt.Flow = 1
		pkt.Seq = seq
		pkt.Size = 160
		h.par.drainSend(pkt, h.nar.Addr())
		if err := h.engine.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("drain tunnel allocates %.2f times per packet; want 0", avg)
	}
	if st := topo.PoolStats(); delivered != 64+201 || st.Gets != st.Puts {
		t.Fatalf("delivered %d packets, pool %+v; want 265 delivered and every packet recycled", delivered, st)
	}
}

// BenchmarkARHandoffCycle measures one complete handoff (negotiation,
// redirection with an 8-packet real-time burst, attach, release, grace
// close) end to end. Session objects, buffers, and timers are recycled;
// remaining allocations are the per-handoff signaling messages themselves.
func BenchmarkARHandoffCycle(b *testing.B) {
	h := newARHarness(b, ARConfig{Scheme: SchemeEnhanced, PoolSize: 40, Alpha: 2})
	h.cycle(b, 8) // warm the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cycle(b, 8)
	}
}

// BenchmarkSafetyNetHandoffCycle measures the same complete handoff under
// the SafetyNet scheme: no pool claims at either router — redirected
// packets ride the NAR hold window and drain on the selective report.
func BenchmarkSafetyNetHandoffCycle(b *testing.B) {
	h := newARHarness(b, ARConfig{Scheme: SchemeSafetyNet, PoolSize: 40})
	h.cycle(b, 8) // warm the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cycle(b, 8)
	}
}
