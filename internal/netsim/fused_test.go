package netsim

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// arrival is one delivery observed at a receiver: when, which packet, in
// what order (the slice index).
type arrival struct {
	at sim.Time
	id uint64
}

// TestFusedMatchesClassicDifferential is the seeded differential property
// test for the analytic transmit path: random bandwidth/delay/queue-limit/
// byte-limit configurations carry identical random burst patterns through a
// fused and a classic link wired side by side on one engine, and every
// observable — delivery times and order, drop decisions, and the
// Sent/Dropped/QueueLen/QueueBytes counters read at random mid-run instants
// — must match exactly. Runs under -race in CI.
func TestFusedMatchesClassicDifferential(t *testing.T) {
	bands := []int64{0, 125_000, 1_000_000, 3_000_000, 9_600_000, 1_000_000_000}
	delays := []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond, 7 * sim.Millisecond}
	qlims := []int{0, 1, 2, 5, 20}
	blims := []int{0, 500, 2000, 5000}

	for trial := 0; trial < 60; trial++ {
		rng := sim.NewRNG(int64(trial)*7919 + 1)
		cfg := LinkConfig{
			BandwidthBPS:    bands[rng.Intn(len(bands))],
			Delay:           delays[rng.Intn(len(delays))],
			QueueLimit:      qlims[rng.Intn(len(qlims))],
			QueueLimitBytes: blims[rng.Intn(len(blims))],
		}

		e := sim.NewEngine()
		a := NewHost("a", inet.Addr{Net: 1, Host: 1})
		b := NewHost("b", inet.Addr{Net: 2, Host: 1})
		c := NewHost("c", inet.Addr{Net: 3, Host: 1})
		d := NewHost("d", inet.Addr{Net: 4, Host: 1})
		prev := SetFusedLinks(false)
		lc := Connect(e, a, b, cfg) // classic
		SetFusedLinks(true)
		lf := Connect(e, c, d, cfg) // fused
		SetFusedLinks(prev)

		var arrC, arrF []arrival
		b.Receive = func(pkt *inet.Packet) { arrC = append(arrC, arrival{e.Now(), pkt.ID}) }
		d.Receive = func(pkt *inet.Packet) { arrF = append(arrF, arrival{e.Now(), pkt.ID}) }
		var dropC, dropF []uint64
		lc.A().DropHook = func(pkt *inet.Packet) { dropC = append(dropC, pkt.ID) }
		lf.A().DropHook = func(pkt *inet.Packet) { dropF = append(dropF, pkt.ID) }

		// Random bursts: the same (id, size) sequence enters both links in
		// the same event, so any divergence is the link's doing.
		var nextID uint64
		bursts := 4 + rng.Intn(16)
		for k := 0; k < bursts; k++ {
			at := sim.Time(rng.Intn(40)) * sim.Millisecond
			n := 1 + rng.Intn(6)
			sizes := make([]int, n)
			for j := range sizes {
				sizes[j] = 40 + rng.Intn(1461)
			}
			e.At(at, func() {
				for _, size := range sizes {
					nextID++
					pc := newPkt(a.Addr(), b.Addr(), size)
					pc.ID = nextID
					pf := newPkt(c.Addr(), d.Addr(), size)
					pf.ID = nextID
					a.Send(pc)
					c.Send(pf)
				}
			})
		}
		// Random mid-run readers: the lazily drained ring must reconstruct
		// the classic counters at every instant, not just at the end.
		for k := 0; k < 8; k++ {
			at := sim.Time(rng.Intn(45)) * sim.Millisecond
			e.At(at, func() {
				ic, ifd := lc.A(), lf.A()
				if ic.Sent() != ifd.Sent() || ic.Dropped() != ifd.Dropped() ||
					ic.QueueLen() != ifd.QueueLen() || ic.QueueBytes() != ifd.QueueBytes() {
					t.Errorf("trial %d cfg %+v at %v: classic sent=%d dropped=%d qlen=%d qbytes=%d, fused sent=%d dropped=%d qlen=%d qbytes=%d",
						trial, cfg, e.Now(),
						ic.Sent(), ic.Dropped(), ic.QueueLen(), ic.QueueBytes(),
						ifd.Sent(), ifd.Dropped(), ifd.QueueLen(), ifd.QueueBytes())
				}
			})
		}

		if err := e.RunAll(); err != nil {
			t.Fatalf("trial %d: RunAll: %v", trial, err)
		}

		if len(arrC) != len(arrF) {
			t.Fatalf("trial %d cfg %+v: %d classic deliveries vs %d fused", trial, cfg, len(arrC), len(arrF))
		}
		for j := range arrC {
			if arrC[j] != arrF[j] {
				t.Fatalf("trial %d cfg %+v: delivery %d: classic %+v, fused %+v", trial, cfg, j, arrC[j], arrF[j])
			}
		}
		if len(dropC) != len(dropF) {
			t.Fatalf("trial %d cfg %+v: %d classic drops vs %d fused", trial, cfg, len(dropC), len(dropF))
		}
		for j := range dropC {
			if dropC[j] != dropF[j] {
				t.Fatalf("trial %d cfg %+v: drop %d: classic id %d, fused id %d", trial, cfg, j, dropC[j], dropF[j])
			}
		}
		ic, ifd := lc.A(), lf.A()
		if ic.Sent() != ifd.Sent() || ic.Dropped() != ifd.Dropped() ||
			lc.B().Delivers() != lf.B().Delivers() ||
			ic.QueueLen() != ifd.QueueLen() || ic.QueueBytes() != ifd.QueueBytes() {
			t.Fatalf("trial %d cfg %+v: final counters diverge: classic sent=%d dropped=%d delivers=%d, fused sent=%d dropped=%d delivers=%d",
				trial, cfg, ic.Sent(), ic.Dropped(), lc.B().Delivers(),
				ifd.Sent(), ifd.Dropped(), lf.B().Delivers())
		}
	}
}

// TestFusedHalvesWiredHopEvents pins the tentpole's event economy: the same
// burst over a fused link must cost exactly one scheduler event per packet
// where the classic path costs two (txDone + deliver).
func TestFusedHalvesWiredHopEvents(t *testing.T) {
	run := func(fused bool) uint64 {
		e := sim.NewEngine()
		a := NewHost("a", inet.Addr{Net: 1, Host: 1})
		b := NewHost("b", inet.Addr{Net: 2, Host: 1})
		prev := SetFusedLinks(fused)
		Connect(e, a, b, LinkConfig{BandwidthBPS: 10_000_000, Delay: sim.Millisecond})
		SetFusedLinks(prev)
		b.Receive = func(pkt *inet.Packet) {}
		const n = 100
		e.At(0, func() {
			for i := 0; i < n; i++ {
				a.Send(newPkt(a.Addr(), b.Addr(), 1000))
			}
		})
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return e.Processed()
	}
	classic, fused := run(false), run(true)
	// 1 burst event + 2 events/packet classic, 1 event/packet fused.
	if classic != 201 || fused != 101 {
		t.Fatalf("events: classic=%d (want 201), fused=%d (want 101)", classic, fused)
	}
}

// benchWiredHop measures one pool-allocated UDP packet crossing a wired
// hop end to end — send, serialization, propagation, delivery, release,
// deferred reclaim — on the selected transmit path. The CI gate pins both variants at
// 0 allocs/op exactly; their ns/op ratio is the fused path's per-hop win.
func benchWiredHop(b *testing.B, fused bool) {
	prev := SetFusedLinks(fused)
	defer SetFusedLinks(prev)
	engine := sim.NewEngine()
	topo := NewTopology(engine)
	src := NewHost("a", inet.Addr{Net: 1, Host: 1})
	dst := NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(src, dst, LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})
	dst.Receive = func(pkt *inet.Packet) { topo.ReleasePacket(pkt) }
	send := func() {
		pkt := topo.AllocPacket()
		pkt.Src = src.Addr()
		pkt.Dst = dst.Addr()
		pkt.Proto = inet.ProtoUDP
		pkt.Size = 160
		src.Send(pkt)
		if err := engine.RunAll(); err != nil {
			b.Fatalf("engine: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

func BenchmarkWiredHopFused(b *testing.B)   { benchWiredHop(b, true) }
func BenchmarkWiredHopClassic(b *testing.B) { benchWiredHop(b, false) }

// TestImpairDiscardReleasesToPool pins the fix for the pooled-packet leak on
// the Impair discard path: a discarded packet reaches the DiscardHook, and a
// topology that recycles there gets every packet back in its pool.
func TestImpairDiscardReleasesToPool(t *testing.T) {
	e := sim.NewEngine()
	topo := NewTopology(e)
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := topo.Connect(a, b, LinkConfig{Delay: sim.Millisecond})
	l.A().Impair = func(pkt *inet.Packet) bool { return pkt.ID%2 == 1 } // discard odd IDs
	var discards int
	topo.HookDiscards(func(pkt *inet.Packet) {
		discards++
		topo.ReleasePacket(pkt)
	})
	b.Receive = func(pkt *inet.Packet) { topo.ReleasePacket(pkt) }

	const n = 50
	for i := 0; i < n; i++ {
		pkt := topo.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Proto, pkt.Size = a.Addr(), b.Addr(), inet.ProtoUDP, 100
		pkt.ID = topo.NewPacketID()
		a.Send(pkt)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if discards != n/2 {
		t.Fatalf("DiscardHook saw %d packets, want %d", discards, n/2)
	}
	// Every packet — delivered or discarded — must be back in the pool.
	if got := topo.pool.Len(); got != n {
		t.Fatalf("pool recovered %d of %d packets; the discard path leaks", got, n)
	}
}

// TestFusedFallsBackUnderImpair pins the mode commit: a link whose Impair
// hook exists at first Send stays on the classic path even when fusion is
// the process default, and behaves identically to a plain classic link.
func TestFusedFallsBackUnderImpair(t *testing.T) {
	if !FusedLinks() {
		t.Skip("fusion disabled via NETSIM_FUSED=0")
	}
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, Delay: sim.Millisecond})
	l.A().Impair = func(pkt *inet.Packet) bool { return false } // present but transparent
	var got int
	b.Receive = func(pkt *inet.Packet) { got++ }
	for i := 0; i < 3; i++ {
		a.Send(newPkt(a.Addr(), b.Addr(), 500))
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if l.A().mode != modeClassic {
		t.Fatalf("mode = %d, want classic fallback under Impair", l.A().mode)
	}
	if got != 3 || l.A().Sent() != 3 {
		t.Fatalf("delivered %d sent %d, want 3/3", got, l.A().Sent())
	}
}
