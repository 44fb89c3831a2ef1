package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

func TestNextAtSkipsCancelledHeads(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty engine reported an event")
	}
	first := e.At(5, func() {})
	e.At(9, func() {})
	if at, ok := e.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt = %v/%t, want 5/true", at, ok)
	}
	e.Cancel(first)
	if at, ok := e.NextAt(); !ok || at != 9 {
		t.Fatalf("NextAt after cancel = %v/%t, want 9/true", at, ok)
	}
	// The cancelled head was collected, not merely skipped.
	if e.queue.size() != 1 {
		t.Fatalf("queue size = %d, want 1 (cancelled head recycled)", e.queue.size())
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt after drain reported an event")
	}
}

// tickTrace schedules a self-rechaining tick on an engine and records each
// firing as "instant@engine" so runs can be compared byte-for-byte.
func tickTrace(e *Engine, name string, period, stop Time, out *[]string) {
	var tick func()
	tick = func() {
		*out = append(*out, fmt.Sprintf("%d@%s", e.Now(), name))
		if e.Now()+period <= stop {
			e.Schedule(period, tick)
		}
	}
	e.At(0, tick)
}

func shardedTickTrace(t *testing.T, workers int) [][]string {
	t.Helper()
	engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	traces := make([][]string, len(engines))
	periods := []Time{7, 11, 13}
	for i, e := range engines {
		tickTrace(e, fmt.Sprintf("s%d", i), periods[i], 500, &traces[i])
	}
	g := NewShardGroup(engines, 10, workers)
	if err := g.Run(500); err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	for _, e := range engines {
		if e.Now() != 500 {
			t.Fatalf("shard clock = %v, want 500", e.Now())
		}
	}
	return traces
}

func TestShardGroupIndependentOfWorkerCount(t *testing.T) {
	// Independent shards (no exchange): every worker count must produce the
	// identical per-shard firing trace, and that trace must equal running
	// each engine alone.
	ref := shardedTickTrace(t, 1)
	for _, workers := range []int{2, 3, 8} {
		got := shardedTickTrace(t, workers)
		for i := range ref {
			if fmt.Sprint(got[i]) != fmt.Sprint(ref[i]) {
				t.Fatalf("workers=%d shard %d trace diverged:\n got %v\nwant %v", workers, i, got[i], ref[i])
			}
		}
	}
	var solo []string
	e := NewEngine()
	tickTrace(e, "s0", 7, 500, &solo)
	if err := e.Run(500); err != nil {
		t.Fatalf("solo Run: %v", err)
	}
	if fmt.Sprint(solo) != fmt.Sprint(ref[0]) {
		t.Fatalf("sharded shard 0 diverged from solo engine:\n got %v\nwant %v", ref[0], solo)
	}
}

func TestShardGroupExchangeRespectsLookahead(t *testing.T) {
	// Shard 0 emits a message every 10 units; the exchange migrates each
	// into shard 1 with +lookahead latency. The conservative protocol must
	// deliver every message at exactly its arrival instant.
	const lookahead = Time(10)
	a, b := NewEngine(), NewEngine()
	x := newTestExchange(t, 2)
	var arrivals []Time

	var emit func()
	emit = func() {
		at := a.Now() + lookahead
		x.send(0, b, at, func() {
			if b.Now() != at {
				t.Errorf("arrival fired at %v, want %v", b.Now(), at)
			}
			arrivals = append(arrivals, b.Now())
		})
		if a.Now() < 200 {
			a.Schedule(10, emit)
		}
	}
	a.At(0, emit)

	g := NewShardGroup([]*Engine{a, b}, lookahead, 2)
	g.SetExchange(x)
	if err := g.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(arrivals) != 21 {
		t.Fatalf("arrivals = %d, want 21", len(arrivals))
	}
	for i, at := range arrivals {
		if want := Time(10*i) + lookahead; at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

func TestShardGroupStopPropagates(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	fired := 0
	b.At(5, func() { fired++ })
	a.At(1, func() { a.Stop() })
	a.At(50, func() { fired++ })
	g := NewShardGroup([]*Engine{a, b}, 10, 2)
	if err := g.Run(100); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	// The epoch containing the stop still completes on the other shard.
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (b's event ran, a's later event did not)", fired)
	}
}

func TestShardGroupHorizonAdvancesIdleClocks(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	a.At(3, func() {})
	g := NewShardGroup([]*Engine{a, b}, 5, 1)
	if err := g.Run(40); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Now() != 40 || b.Now() != 40 {
		t.Fatalf("clocks = %v/%v, want 40/40", a.Now(), b.Now())
	}
	// Events beyond the horizon stay queued for a later Run.
	ran := false
	a.At(60, func() { ran = true })
	if err := g.Run(80); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !ran {
		t.Fatal("event scheduled past the first horizon never fired")
	}
}

func TestShardGroupSingleShardIsSerial(t *testing.T) {
	e := NewEngine()
	var trace []string
	tickTrace(e, "solo", 7, 200, &trace)
	g := NewShardGroup([]*Engine{e}, 10, 4)
	if err := g.Run(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want []string
	ref := NewEngine()
	tickTrace(ref, "solo", 7, 200, &want)
	if err := ref.Run(200); err != nil {
		t.Fatalf("ref Run: %v", err)
	}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("single-shard group diverged from plain engine:\n got %v\nwant %v", trace, want)
	}
}

// testExchange is a minimal cross-shard mailbox mirroring the structure of
// netsim.ShardExchange: per-sender outboxes parked mid-round, a shared
// atomic dirty counter behind Pending, and an ordered single-threaded
// Flush at the barrier. Flush also checks causality: an arrival must lie
// strictly after the receiving engine's clock, since Engine.At would
// otherwise clamp it to the present and hide a horizon that ran too far.
type testExchange struct {
	tb      testing.TB
	boxes   [][]testMsg
	dirty   []bool
	pending atomic.Int64
}

type testMsg struct {
	to *Engine
	at Time
	fn Handler
}

func newTestExchange(tb testing.TB, shards int) *testExchange {
	return &testExchange{tb: tb, boxes: make([][]testMsg, shards), dirty: make([]bool, shards)}
}

// send parks a message from the given shard. It runs on the sending
// shard's goroutine mid-round, touching only that shard's outbox plus the
// atomic counter — the same discipline as xPort.park.
func (x *testExchange) send(from int, to *Engine, at Time, fn Handler) {
	if !x.dirty[from] {
		x.dirty[from] = true
		x.pending.Add(1)
	}
	x.boxes[from] = append(x.boxes[from], testMsg{to: to, at: at, fn: fn})
}

func (x *testExchange) Flush() {
	if x.pending.Load() == 0 {
		return
	}
	x.pending.Store(0)
	for i := range x.boxes {
		if !x.dirty[i] {
			continue
		}
		x.dirty[i] = false
		for _, m := range x.boxes[i] {
			if m.at <= m.to.Now() {
				x.tb.Errorf("arrival %d behind receiver clock %d", m.at, m.to.Now())
			}
			m.to.At(m.at, m.fn)
		}
		x.boxes[i] = x.boxes[i][:0]
	}
}

func (x *testExchange) Pending() bool { return x.pending.Load() != 0 }

// relayRun drives a 3-shard ping→relay→pong chain with a busy-then-idle
// background shard: shard 0 pings shard 1 every 100 units, shard 1 relays
// each ping to shard 2 and bounces an echo back to shard 0 (the bounce
// that bounds solo-round widening: it reaches the pinger 2L after its
// send), and shard 2 ticks densely early on, then goes quiet. Returns the
// per-shard traces and the group's stats.
func relayRun(t *testing.T, adaptive bool, workers int) ([][]string, ShardStats) {
	t.Helper()
	const L = Time(10)
	engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	x := newTestExchange(t, 3)
	traces := make([][]string, 3)
	rec := func(i int, tag string) {
		traces[i] = append(traces[i], fmt.Sprintf("%d@%s", engines[i].Now(), tag))
	}
	var ping func()
	ping = func() {
		rec(0, "ping")
		x.send(0, engines[1], engines[0].Now()+L, func() {
			rec(1, "relay")
			x.send(1, engines[2], engines[1].Now()+L, func() { rec(2, "pong") })
			x.send(1, engines[0], engines[1].Now()+L, func() { rec(0, "echo") })
		})
		if engines[0].Now() < 1000 {
			engines[0].Schedule(100, ping)
		}
	}
	engines[0].At(0, ping)
	tickTrace(engines[2], "bg", 7, 60, &traces[2])

	g := NewShardGroup(engines, L, workers)
	g.SetExchange(x)
	g.SetAdaptive(adaptive)
	if err := g.Run(2000); err != nil {
		t.Fatalf("Run(adaptive=%t workers=%d): %v", adaptive, workers, err)
	}
	return traces, g.Stats()
}

func TestShardGroupAdaptiveMatchesFixed(t *testing.T) {
	// The differential golden at the sim level: the adaptive protocol, at
	// every worker count, must produce the identical per-shard traces as
	// the fixed-width protocol.
	refTraces, refStats := relayRun(t, false, 1)
	if n := len(refTraces[2]); n == 0 {
		t.Fatal("no pongs reached shard 2")
	}
	var adaptiveStats ShardStats
	for _, workers := range []int{1, 2, 3} {
		got, stats := relayRun(t, true, workers)
		for i := range refTraces {
			if fmt.Sprint(got[i]) != fmt.Sprint(refTraces[i]) {
				t.Fatalf("workers=%d shard %d diverged:\n got %v\nwant %v",
					workers, i, got[i], refTraces[i])
			}
		}
		if workers == 1 {
			adaptiveStats = stats
		}
	}
	// The whole point: the sparse phase collapses. Fewer synchronized
	// rounds, some solo rounds, some elided dispatches.
	if adaptiveStats.BarrierRounds >= refStats.BarrierRounds {
		t.Fatalf("adaptive barrier rounds %d not below fixed %d", adaptiveStats.BarrierRounds, refStats.BarrierRounds)
	}
	if adaptiveStats.SoloRounds == 0 || adaptiveStats.ElidedDispatches == 0 {
		t.Fatalf("adaptive stats %+v: expected solo rounds and elided dispatches", adaptiveStats)
	}
	if refStats.SoloRounds != 0 || refStats.ElidedDispatches != 0 {
		t.Fatalf("fixed stats %+v: fixed mode must dispatch every shard every round", refStats)
	}
}

func TestShardGroupStatsWorkerIndependent(t *testing.T) {
	_, ref := relayRun(t, true, 1)
	for _, workers := range []int{2, 3} {
		if _, got := relayRun(t, true, workers); got != ref {
			t.Fatalf("stats diverged between 1 and %d workers:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

func TestShardGroupSoloWideningTightensOnSend(t *testing.T) {
	// Shard 0 fires dense local events 0..100 and parks one cross send at
	// instant 50 (arrival 60 on shard 1, which is otherwise empty); shard 1
	// bounces it straight back (arrival 70 on shard 0, s+2L). The first
	// round is solo and initially unbounded (no foreign event exists), so
	// the tightening on the parked send is the only thing that stops shard
	// 0 before the bounce returns.
	const L = Time(10)
	a, b := NewEngine(), NewEngine()
	x := newTestExchange(t, 2)
	returned := false
	for i := Time(0); i <= 100; i++ {
		at := i
		a.At(at, func() {
			if at == 50 {
				x.send(0, b, a.Now()+L, func() {
					if b.Now() != 60 {
						t.Errorf("arrival fired at %d, want 60", b.Now())
					}
					x.send(1, a, b.Now()+L, func() {
						returned = true
						if a.Now() != 70 {
							t.Errorf("bounce returned at %d, want 70", a.Now())
						}
					})
				})
			}
		})
	}
	g := NewShardGroup([]*Engine{a, b}, L, 1)
	g.SetExchange(x)
	if err := g.Run(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !returned {
		t.Fatal("the bounce never returned to shard 0")
	}
	stats := g.Stats()
	if stats.SoloRounds == 0 {
		t.Fatalf("stats %+v: expected solo rounds", stats)
	}
	// 101 dense events under fixed L=10 epochs would cost ~11 rounds; the
	// adaptive run needs only a handful (solo to 69, relay, resume).
	if stats.Rounds > 6 {
		t.Fatalf("adaptive run used %d rounds for a workload fixed mode covers in ~11", stats.Rounds)
	}
	if a.Now() != 200 || b.Now() != 200 {
		t.Fatalf("clocks = %v/%v, want 200/200", a.Now(), b.Now())
	}
}

// fuzzRelayRun replays a byte-coded schedule on n shards and returns the
// per-shard traces. Each 3-byte op (kind, route, instant) starts one leg
// at instant 4*op[2]: kind%4 selects a local burst of 1..16 consecutive
// events, a ping s→d, a relay s→d→e or a bounce s→d→s; the route byte
// picks the shards, and its top two bits add 0..3 to every hop's delay
// beyond the lookahead.
func fuzzRelayRun(t *testing.T, n int, ops []byte, adaptive bool, workers int) [][]string {
	const L = Time(10)
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = NewEngine()
	}
	x := newTestExchange(t, n)
	traces := make([][]string, n)
	// hop fires step k of a leg on shard path[k] and sends it on.
	var hop func(leg, k int, path []int, at, delay Time)
	hop = func(leg, k int, path []int, at, delay Time) {
		s := path[k]
		e := engines[s]
		if e.Now() != at {
			t.Errorf("leg %d step %d fired at %d, want %d", leg, k, e.Now(), at)
		}
		traces[s] = append(traces[s], fmt.Sprintf("%d@%d.%d", at, leg, k))
		if k+1 < len(path) {
			next := at + delay
			x.send(s, engines[path[k+1]], next, func() { hop(leg, k+1, path, next, delay) })
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		leg, kind, r, at := i/3, ops[i]%4, int(ops[i+1]), 4*Time(ops[i+2])
		src := r % n
		dst := (src + 1 + r/4%(n-1)) % n
		path := []int{src}
		switch kind {
		case 1:
			path = append(path, dst)
		case 2:
			path = append(path, dst, (dst+1+r/16%(n-1))%n)
		case 3:
			path = append(path, dst, src)
		}
		burst := Time(1)
		if kind == 0 {
			burst += Time(r >> 4)
		}
		delay := L + Time(r>>6)
		for j := Time(0); j < burst; j++ {
			at := at + j
			engines[src].At(at, func() { hop(leg, 0, path, at, delay) })
		}
	}
	g := NewShardGroup(engines, L, workers)
	g.SetExchange(x)
	g.SetAdaptive(adaptive)
	if err := g.RunAll(); err != nil {
		t.Fatalf("RunAll(adaptive=%t workers=%d): %v", adaptive, workers, err)
	}
	return traces
}

// FuzzShardGroupRelay checks the epoch protocols on random 2–4-shard
// ping/relay/bounce schedules: each protocol's traces are identical at one
// and two workers, every arrival is causal (the exchange's check), and the
// adaptive protocol fires exactly the fixed one's events. Across protocols
// the traces are compared per shard as sorted multisets: two arrivals for
// the same instant may be flushed in different rounds, so their
// equal-instant order legitimately differs between protocols.
func FuzzShardGroupRelay(f *testing.F) {
	f.Add(uint8(0), []byte{3, 0, 5, 0, 0x40, 0, 1, 1, 9})
	f.Add(uint8(1), []byte{2, 0x17, 0, 3, 0xc2, 2, 0, 0xf1, 1, 1, 0x05, 30})
	f.Add(uint8(2), []byte{3, 0x26, 10, 2, 0x9b, 11, 0, 0x33, 12, 1, 0x0c, 40, 3, 0x61, 41})
	f.Fuzz(func(t *testing.T, shards uint8, ops []byte) {
		n := 2 + int(shards%3)
		if len(ops) > 96 {
			ops = ops[:96]
		}
		sorted := func(traces [][]string) string {
			for _, tr := range traces {
				slices.Sort(tr)
			}
			return fmt.Sprint(traces)
		}
		var ref string
		for _, adaptive := range []bool{false, true} {
			one := fmt.Sprint(fuzzRelayRun(t, n, ops, adaptive, 1))
			two := fuzzRelayRun(t, n, ops, adaptive, 2)
			if fmt.Sprint(two) != one {
				t.Fatalf("adaptive=%t: traces differ between 1 and 2 workers:\n%v\nvs\n%s", adaptive, two, one)
			}
			if got := sorted(two); ref == "" {
				ref = got
			} else if got != ref {
				t.Fatalf("adaptive traces differ from fixed:\n%s\nvs\n%s", got, ref)
			}
		}
	})
}

func TestShardGroupStopInSoloRound(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	x := newTestExchange(t, 2)
	fired := 0
	a.At(1, func() { a.Stop() })
	a.At(50, func() { fired++ })
	g := NewShardGroup([]*Engine{a, b}, 10, 1)
	g.SetExchange(x)
	if err := g.Run(100); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if fired != 0 {
		t.Fatal("event after the stop fired")
	}
	if g.Stats().SoloRounds == 0 {
		t.Fatalf("stats %+v: the stop round should have been solo (shard 1 is empty)", g.Stats())
	}
}

func TestShardGroupRunAfterError(t *testing.T) {
	// A failed Run must not leave a stale error behind: with elision a shard
	// can sit undispatched for whole rounds, so errs are cleared per Run and
	// scanned only over dispatched shards.
	a, b := NewEngine(), NewEngine()
	b.At(5, func() { b.Stop() })
	a.At(3, func() {})
	g := NewShardGroup([]*Engine{a, b}, 10, 2)
	if err := g.Run(100); err != ErrStopped {
		t.Fatalf("first Run = %v, want ErrStopped", err)
	}
	fired := 0
	a.At(200, func() { fired++ })
	b.At(210, func() { fired++ })
	if err := g.Run(300); err != nil {
		t.Fatalf("Run after error = %v, want nil (stale error resurfaced?)", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after recovery", fired)
	}
	if a.Now() != 300 || b.Now() != 300 {
		t.Fatalf("clocks = %v/%v, want 300/300", a.Now(), b.Now())
	}
}

// BenchmarkEpochBarrier pins the synchronization cost of the two epoch
// protocols on a sparse relay workload (the regime the adaptive path
// exists for). The custom metrics expose the round economics: fixed mode
// pays a synchronized round per event cluster, adaptive mode turns almost
// all of them into barrier-free solo rounds.
func BenchmarkEpochBarrier(b *testing.B) {
	run := func(adaptive bool) func(b *testing.B) {
		return func(b *testing.B) {
			var rounds, syncs uint64
			for i := 0; i < b.N; i++ {
				const L = Time(10)
				engines := []*Engine{NewEngine(), NewEngine(), NewEngine(), NewEngine()}
				x := newTestExchange(b, len(engines))
				// Each shard ticks every 997 units (mutually offset), and
				// every 16th tick sends to the next shard: quiet stretches
				// dominated by local work, punctuated by rare cross traffic.
				for s := range engines {
					s := s
					e := engines[s]
					peer := engines[(s+1)%len(engines)]
					n := 0
					var tick func()
					tick = func() {
						n++
						if n%16 == 0 {
							x.send(s, peer, e.Now()+L, func() {})
						}
						if e.Now() < 200_000 {
							e.Schedule(997, tick)
						}
					}
					e.At(Time(s)*211, tick)
				}
				g := NewShardGroup(engines, L, 1)
				g.SetExchange(x)
				g.SetAdaptive(adaptive)
				if err := g.RunAll(); err != nil {
					b.Fatal(err)
				}
				st := g.Stats()
				rounds += st.Rounds
				syncs += st.BarrierRounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
		}
	}
	b.Run("fixed", run(false))
	b.Run("adaptive", run(true))
}
