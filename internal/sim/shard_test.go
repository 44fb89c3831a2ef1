package sim

import (
	"fmt"
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

	type msg struct {
		at Time
	}
	var outbox []msg
	var arrivals []Time

	var emit func()
	emit = func() {
		outbox = append(outbox, msg{at: a.Now() + lookahead})
		if a.Now() < 200 {
			a.Schedule(10, emit)
		}
	}
	a.At(0, emit)

	exchange := func() {
		for _, m := range outbox {
			at := m.at
			b.At(at, func() {
				if b.Now() != at {
					t.Errorf("arrival fired at %v, want %v", b.Now(), at)
				}
				arrivals = append(arrivals, b.Now())
			})
		}
		outbox = outbox[:0]
	}

	g := NewShardGroup([]*Engine{a, b}, lookahead, 2)
	g.SetExchange(exchange)
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
// atomic dirty counter as the pending oracle, and an ordered
// single-threaded flush at the barrier.
type testExchange struct {
	boxes   [][]testMsg
	dirty   []bool
	pending atomic.Int64
}

type testMsg struct {
	to *Engine
	at Time
	fn Handler
}

func newTestExchange(shards int) *testExchange {
	return &testExchange{boxes: make([][]testMsg, shards), dirty: make([]bool, shards)}
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

func (x *testExchange) flush() {
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
			m.to.At(m.at, m.fn)
		}
		x.boxes[i] = x.boxes[i][:0]
	}
}

func (x *testExchange) Pending() bool { return x.pending.Load() != 0 }

// relayRun drives a 3-shard ping→relay→pong chain with a busy-then-idle
// background shard: shard 0 pings shard 1 every 100 units, shard 1 relays
// each ping to shard 2 (the bounce that bounds solo-round widening), and
// shard 2 ticks densely early on, then goes quiet. Returns the per-shard
// traces and the group's stats.
func relayRun(t *testing.T, adaptive, oracle bool, workers int) ([][]string, ShardStats) {
	t.Helper()
	const L = Time(10)
	engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	x := newTestExchange(3)
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
		})
		if engines[0].Now() < 1000 {
			engines[0].Schedule(100, ping)
		}
	}
	engines[0].At(0, ping)
	tickTrace(engines[2], "bg", 7, 60, &traces[2])

	g := NewShardGroup(engines, L, workers)
	g.SetExchange(x.flush)
	if oracle {
		g.SetExchangePending(x.Pending)
	}
	g.SetAdaptive(adaptive)
	if err := g.Run(2000); err != nil {
		t.Fatalf("Run(adaptive=%t oracle=%t workers=%d): %v", adaptive, oracle, workers, err)
	}
	return traces, g.Stats()
}

func TestShardGroupAdaptiveMatchesFixed(t *testing.T) {
	// The differential golden at the sim level: the adaptive protocol — with
	// and without the pending oracle, at every worker count — must produce
	// the identical per-shard traces as the fixed-width protocol.
	refTraces, refStats := relayRun(t, false, false, 1)
	if n := len(refTraces[2]); n == 0 {
		t.Fatal("no pongs reached shard 2")
	}
	var adaptiveStats ShardStats
	for _, oracle := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3} {
			got, stats := relayRun(t, true, oracle, workers)
			for i := range refTraces {
				if fmt.Sprint(got[i]) != fmt.Sprint(refTraces[i]) {
					t.Fatalf("oracle=%t workers=%d shard %d diverged:\n got %v\nwant %v",
						oracle, workers, i, got[i], refTraces[i])
				}
			}
			if oracle && workers == 1 {
				adaptiveStats = stats
			}
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
	_, ref := relayRun(t, true, true, 1)
	for _, workers := range []int{2, 3} {
		if _, got := relayRun(t, true, true, workers); got != ref {
			t.Fatalf("stats diverged between 1 and %d workers:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

func TestShardGroupSoloWideningTightensOnSend(t *testing.T) {
	// Shard 0 fires dense local events 0..100 and parks one cross send at
	// instant 50 (arrival 60 on shard 1, which is otherwise empty). With the
	// oracle the first round is solo and initially unbounded (no foreign
	// event exists), so the tightening on the parked send is the only thing
	// keeping the arrival timely.
	const L = Time(10)
	a, b := NewEngine(), NewEngine()
	x := newTestExchange(2)
	for i := Time(0); i <= 100; i++ {
		at := i
		a.At(at, func() {
			if at == 50 {
				x.send(0, b, a.Now()+L, func() {
					if b.Now() != 60 {
						t.Errorf("arrival fired at %v, want 60", b.Now())
					}
				})
			}
		})
	}
	g := NewShardGroup([]*Engine{a, b}, L, 1)
	g.SetExchange(x.flush)
	g.SetExchangePending(x.Pending)
	if err := g.Run(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := g.Stats()
	if stats.SoloRounds == 0 {
		t.Fatalf("stats %+v: expected solo rounds", stats)
	}
	// 101 dense events under fixed L=10 epochs would cost ~11 rounds; the
	// adaptive run needs only a handful (solo to 69, deliver, resume).
	if stats.Rounds > 6 {
		t.Fatalf("adaptive run used %d rounds for a workload fixed mode covers in ~11", stats.Rounds)
	}
	if a.Now() != 200 || b.Now() != 200 {
		t.Fatalf("clocks = %v/%v, want 200/200", a.Now(), b.Now())
	}
}

func TestShardGroupStopInSoloRound(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	x := newTestExchange(2)
	fired := 0
	a.At(1, func() { a.Stop() })
	a.At(50, func() { fired++ })
	g := NewShardGroup([]*Engine{a, b}, 10, 1)
	g.SetExchange(x.flush)
	g.SetExchangePending(x.Pending)
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
				x := newTestExchange(len(engines))
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
				g.SetExchange(x.flush)
				g.SetExchangePending(x.Pending)
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
