package netsim

import (
	"fmt"
	"os"
	"strings"
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

// observations builds one golden line: space-separated observation tokens.
type observations struct{ b strings.Builder }

func (o *observations) add(format string, args ...any) {
	if o.b.Len() > 0 {
		o.b.WriteByte(' ')
	}
	fmt.Fprintf(&o.b, format, args...)
}

// compareGolden checks got, one line per trial, line for line against the
// recorded file and reports the first diverging observation of each line
// that differs.
func compareGolden(t *testing.T, path string, got []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s records %d trials, the test ran %d", path, len(want), len(got))
	}
	token := func(f []string, k int) string {
		if k < len(f) {
			return f[k]
		}
		return "<end>"
	}
	for n := range want {
		if got[n] == want[n] {
			continue
		}
		w, g := strings.Fields(want[n]), strings.Fields(got[n])
		k := 0
		for k < len(w) && k < len(g) && w[k] == g[k] {
			k++
		}
		t.Errorf("%s line %d: first divergence at observation %d: recorded %s, got %s",
			path, n+1, k, token(w, k), token(g, k))
	}
}

// checkConservation asserts per-direction conservation on i at the
// current instant: every accepted packet has been sent, is queued, or is
// in service, and every sent packet has been delivered to the peer or is
// still on the wire.
func checkConservation(t *testing.T, i *Iface, accepted uint64) {
	t.Helper()
	sent, queued := i.Sent(), i.QueueLen()
	busy := len(i.ring) - i.ringHead
	inService := min(busy, 1)
	if got := sent + uint64(queued+inService); got != accepted {
		t.Errorf("%v at %v: sent %d + queued %d + in service %d = %d, accepted %d",
			i, i.engine.Now(), sent, queued, inService, got, accepted)
	}
	onWire := uint64(i.inflight.len() - busy)
	if delivered := i.peer.Delivers(); sent != delivered+onWire {
		t.Errorf("%v at %v: sent %d, peer delivered %d + on the wire %d",
			i, i.engine.Now(), sent, delivered, onWire)
	}
}

// TestLinkMatchesClassicGolden replays the seeded link trials recorded
// from the two-event transmit path (txDone, then deliver) that the
// analytic path replaced: random bandwidth/delay/queue-limit/byte-limit
// configurations carry random bursts, and every observable — delivery
// times and order, drop decisions, the Sent/Dropped/QueueLen/QueueBytes
// counters read at random mid-run instants, and the final counters — must
// match testdata/link_classic.golden line for line. Conservation holds in
// both directions at every probe. Runs under -race in CI.
func TestLinkMatchesClassicGolden(t *testing.T) {
	bands := []int64{0, 125_000, 1_000_000, 3_000_000, 9_600_000, 1_000_000_000}
	delays := []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond, 7 * sim.Millisecond}
	qlims := []int{0, 1, 2, 5, 20}
	blims := []int{0, 500, 2000, 5000}

	var lines []string
	for trial := 0; trial < 60; trial++ {
		rng := sim.NewRNG(int64(trial)*7919 + 1)
		cfg := LinkConfig{
			BandwidthBPS:    bands[rng.Intn(len(bands))],
			Delay:           delays[rng.Intn(len(delays))],
			QueueLimit:      qlims[rng.Intn(len(qlims))],
			QueueLimitBytes: blims[rng.Intn(len(blims))],
		}

		e := sim.NewEngine()
		c := NewHost("c", inet.Addr{Net: 3, Host: 1})
		d := NewHost("d", inet.Addr{Net: 4, Host: 1})
		l := Connect(e, c, d, cfg)

		var arr []arrival
		d.Receive = func(pkt *inet.Packet) { arr = append(arr, arrival{e.Now(), pkt.ID}) }
		var drops []uint64
		l.A().DropHook = func(pkt *inet.Packet) { drops = append(drops, pkt.ID) }

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
					pkt := newPkt(c.Addr(), d.Addr(), size)
					pkt.ID = nextID
					c.Send(pkt)
				}
			})
		}
		var probes []string
		conserve := func() {
			checkConservation(t, l.A(), nextID-uint64(len(drops)))
			checkConservation(t, l.B(), 0)
		}
		for k := 0; k < 8; k++ {
			at := sim.Time(rng.Intn(45)) * sim.Millisecond
			e.At(at, func() {
				i := l.A()
				probes = append(probes, fmt.Sprintf("p%d:%d,%d,%d,%d",
					int64(e.Now()), i.Sent(), i.Dropped(), i.QueueLen(), i.QueueBytes()))
				conserve()
			})
		}

		if err := e.RunAll(); err != nil {
			t.Fatalf("trial %d: RunAll: %v", trial, err)
		}
		conserve()

		var obs observations
		obs.add("t%d", trial)
		for _, a := range arr {
			obs.add("d%d:%d", int64(a.at), a.id)
		}
		for _, id := range drops {
			obs.add("x%d", id)
		}
		for _, p := range probes {
			obs.add("%s", p)
		}
		i := l.A()
		obs.add("f%d,%d,%d,%d,%d", i.Sent(), i.Dropped(), l.B().Delivers(), i.QueueLen(), i.QueueBytes())
		lines = append(lines, obs.b.String())
	}
	compareGolden(t, "testdata/link_classic.golden", lines)
}

// TestFusedHalvesWiredHopEvents pins the event economy of the analytic
// path: a burst costs exactly one scheduler event per packet, the delivery
// — half of the two-event txDone-then-deliver chain it replaced.
func TestFusedHalvesWiredHopEvents(t *testing.T) {
	e := sim.NewEngine()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := Connect(e, a, b, LinkConfig{BandwidthBPS: 10_000_000, Delay: sim.Millisecond})
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
	// 1 burst event + 1 delivery per packet.
	if got := e.Processed(); got != 1+n {
		t.Fatalf("events = %d, want %d", got, 1+n)
	}
	checkConservation(t, l.A(), n)
}

// TestImpairedLinkOneEventPerPacket pins that a link with an Impair hook
// takes the same analytic path as any other: it delivers exactly the
// packets the hook lets through, at the instants a plain link carrying
// only those packets delivers them, for one scheduler event per delivered
// packet.
func TestImpairedLinkOneEventPerPacket(t *testing.T) {
	const n = 10
	run := func(impair bool) ([]arrival, uint64) {
		e := sim.NewEngine()
		a := NewHost("a", inet.Addr{Net: 1, Host: 1})
		b := NewHost("b", inet.Addr{Net: 2, Host: 1})
		l := Connect(e, a, b, LinkConfig{BandwidthBPS: 1_000_000, Delay: sim.Millisecond})
		if impair {
			l.A().Impair = func(pkt *inet.Packet) bool { return pkt.ID%2 == 1 } // discard odd IDs
		}
		var arr []arrival
		b.Receive = func(pkt *inet.Packet) { arr = append(arr, arrival{e.Now(), pkt.ID}) }
		e.At(0, func() {
			for id := uint64(1); id <= n; id++ {
				if impair || id%2 == 0 {
					pkt := newPkt(a.Addr(), b.Addr(), 500)
					pkt.ID = id
					a.Send(pkt)
				}
			}
		})
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		checkConservation(t, l.A(), n/2)
		return arr, e.Processed()
	}
	hooked, events := run(true)
	plain, _ := run(false)
	if fmt.Sprint(hooked) != fmt.Sprint(plain) {
		t.Fatalf("hooked link delivered %v, plain link %v", hooked, plain)
	}
	if events != 1+n/2 {
		t.Fatalf("events = %d, want %d (one per delivered packet plus the burst)", events, 1+n/2)
	}
}

// BenchmarkWiredHop measures one pool-allocated UDP packet crossing a
// wired hop end to end — send, serialization, propagation, delivery,
// release, deferred reclaim. The CI gate pins it at 0 allocs/op exactly.
func BenchmarkWiredHop(b *testing.B) {
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
