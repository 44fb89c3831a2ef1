package netsim

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestUDPHopZeroAlloc pins the packet hot path: in steady state, sending
// one pool-allocated UDP packet across a wired hop — serialization event,
// propagation event, delivery, release, and the deferred reclaim —
// allocates nothing.
func TestUDPHopZeroAlloc(t *testing.T) {
	engine := sim.NewEngine()
	topo := NewTopology(engine)
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(a, b, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})

	delivered := 0
	b.Receive = func(pkt *inet.Packet) {
		delivered++
		topo.ReleasePacket(pkt)
	}

	send := func() {
		pkt := topo.AllocPacket()
		pkt.Src = a.Addr()
		pkt.Dst = b.Addr()
		pkt.Proto = inet.ProtoUDP
		pkt.Size = 160
		a.Send(pkt)
		if err := engine.RunAll(); err != nil {
			t.Fatalf("engine: %v", err)
		}
	}
	// Warm the event free list, the packet pool, and the in-flight FIFO.
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("UDP hop allocates %.2f times per packet; want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestUDPHopRecordedZeroAlloc pins the telemetry-instrumented hot path:
// a hop whose send and delivery also feed the statistics recorder (on a
// flow that keeps its samples and on one that does not) still allocates
// nothing in steady state.
func TestUDPHopRecordedZeroAlloc(t *testing.T) {
	for _, keep := range []bool{true, false} {
		name := "streaming"
		if keep {
			name = "kept"
		}
		t.Run(name, func(t *testing.T) {
			engine := sim.NewEngine()
			topo := NewTopology(engine)
			a := NewHost("a", inet.Addr{Net: 1, Host: 1})
			b := NewHost("b", inet.Addr{Net: 2, Host: 1})
			topo.Connect(a, b, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})

			rec := stats.NewRecorder()
			if keep {
				rec.KeepSamples(1)
			}
			b.Receive = func(pkt *inet.Packet) {
				rec.Delivered(pkt, engine.Now())
				topo.ReleasePacket(pkt)
			}

			send := func() {
				pkt := topo.AllocPacket()
				pkt.Src = a.Addr()
				pkt.Dst = b.Addr()
				pkt.Proto = inet.ProtoUDP
				pkt.Flow = 1
				pkt.Size = 160
				pkt.Created = engine.Now()
				rec.Sent(pkt)
				a.Send(pkt)
				if err := engine.RunAll(); err != nil {
					t.Fatalf("engine: %v", err)
				}
			}
			// Warm pools, the dense flow table, and (kept flow) the delay
			// sample slice far enough that append growth is amortized out
			// of the measured window.
			for i := 0; i < 4096; i++ {
				send()
			}
			// A kept flow appends a DelaySample per delivery; keep sending
			// until the slice has enough spare capacity that no growth can
			// land inside the measured runs.
			f := rec.Flow(1)
			if keep {
				for cap(f.Delays)-len(f.Delays) < 256 {
					send()
				}
			}
			if avg := testing.AllocsPerRun(200, send); avg != 0 {
				t.Fatalf("recorded UDP hop allocates %.2f times per packet; want 0", avg)
			}
			if rec.TotalDelivered() == 0 {
				t.Fatal("no packets recorded")
			}
			if kept := uint64(len(f.Delays)); keep && kept != f.DelayCount() || !keep && kept != 0 {
				t.Fatalf("keep=%v: %d samples of %d deliveries", keep, kept, f.DelayCount())
			}
		})
	}
}

// TestRouteLookupZeroAlloc pins the per-hop route lookup: a host-route
// hit, a prefix-route hit and a miss allocate nothing, with host routes
// both inside a dense row and far past it.
func TestRouteLookupZeroAlloc(t *testing.T) {
	engine := sim.NewEngine()
	topo := NewTopology(engine)
	r := NewRouter("r", inet.Addr{Net: 3, Host: 1})
	h := NewHost("h", inet.Addr{Net: 9, Host: 1})
	via := topo.Connect(r, h, LinkConfig{Delay: sim.Millisecond}).A()
	for _, n := range []inet.NetID{1, 50, 1000, 2001} {
		r.AddPrefixRoute(n, via)
	}
	for host := inet.HostID(10); host < 510; host++ {
		r.AddHostRoute(inet.Addr{Net: 2, Host: host}, via)
	}
	far := inet.Addr{Net: 2, Host: 1 << 30}
	r.AddHostRoute(far, via)
	for _, tc := range []struct {
		name string
		dst  inet.Addr
		want *Iface
	}{
		{"host-route", inet.Addr{Net: 2, Host: 300}, via},
		{"far-host-route", far, via},
		{"prefix", inet.Addr{Net: 1000, Host: 1}, via},
		{"miss", inet.Addr{Net: 7, Host: 300}, nil},
	} {
		var got *Iface
		if avg := testing.AllocsPerRun(200, func() { got = r.Route(tc.dst) }); avg != 0 {
			t.Errorf("%s: Route allocates %.2f times per lookup; want 0", tc.name, avg)
		}
		if got != tc.want {
			t.Errorf("%s: Route(%v) = %v, want %v", tc.name, tc.dst, got, tc.want)
		}
	}
}
