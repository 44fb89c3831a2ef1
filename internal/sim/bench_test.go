package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleAndRun measures raw engine throughput: schedule-heavy
// workloads in the network simulator are bounded by this loop.
func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000)*Microsecond, func() {})
		if i%1024 == 1023 {
			if err := e.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerReset measures the cancel-and-rearm path protocol timers
// exercise constantly.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(Second)
	}
	tm.Stop()
}

// BenchmarkSchedulerChurn holds a steady window of pending events and
// replaces one per operation: the hold-pattern churn the queue sees in a
// running simulation.
func BenchmarkSchedulerChurn(b *testing.B) { benchChurn(b, 4096) }

// BenchmarkSchedulerDepth is BenchmarkSchedulerChurn at depths from 16 to
// 4096 pending events: what a heap pop costs an undeclared source as the
// heap deepens.
func BenchmarkSchedulerDepth(b *testing.B) {
	for window := 16; window <= 4096; window *= 2 {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) { benchChurn(b, window) })
	}
}

func benchChurn(b *testing.B, window int) {
	e := NewEngine()
	rng := NewRNG(1)
	fn := func() {}
	for i := 0; i < window; i++ {
		e.Schedule(Time(rng.Intn(1000))*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(1+rng.Intn(1000))*Microsecond, fn)
		e.Step()
	}
	b.StopTimer()
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerMetroMix holds the queue mix a 2,000-host metro cell
// (seed 1) keeps pending, about 5,200 queued entries of which about 4,300
// are live, with no lane declared: every re-arm waits in the heap, and only
// the set-up pushes wait in the set-up lane until they fire. It is what the
// mix costs undeclared sources, and it fires one event per operation:
//   - 2,000 far-future binding-refresh timers, re-armed 5–15 s out;
//   - 1,060 tickers with a 20 ms period;
//   - 1,060 one-shot stops 1–5 s out, each replaced when it fires;
//   - 178 of the tickers reset a 120 ms guard timer on every tick, which
//     keeps about 890 cancelled entries queued;
//   - every tick sends a short hop 0–1.5 ms out, a few dozen in flight.
func BenchmarkSchedulerMetroMix(b *testing.B) {
	const (
		refreshes = 2000
		tickers   = 1060
		stops     = 1060
		guarded   = 178
		period    = 20 * Millisecond
	)
	e := NewEngine()
	rng := NewRNG(1)
	hop := func() {}
	var refresh, stop Handler
	refresh = func() { e.Schedule(rng.Uniform(5*Second, 15*Second), refresh) }
	stop = func() { e.Schedule(rng.Uniform(Second, 5*Second), stop) }
	for i := 0; i < refreshes; i++ {
		e.Schedule(rng.Jitter(15*Second), refresh)
	}
	for i := 0; i < stops; i++ {
		e.Schedule(rng.Uniform(Second, 5*Second), stop)
	}
	for i := 0; i < tickers; i++ {
		var guard *Timer
		if i < guarded {
			guard = NewTimer(e, hop)
		}
		var tick Handler
		tick = func() {
			e.Schedule(period, tick)
			e.Schedule(rng.Jitter(1500*Microsecond), hop)
			if guard != nil {
				guard.Reset(6 * period)
			}
		}
		e.Schedule(rng.Jitter(period), tick)
	}
	// Let the guard timers fill their cancelled backlog.
	if err := e.Run(10 * period); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkSchedulerLaneMix holds the queue a 2,000-host metro cell
// (seed 1) keeps on its lanes, about 6,500 queued entries in ~17 live
// lanes with the heap nearly empty, and fires one event per operation:
//   - 1,060 tickers with a 20 ms period, sharing one lane;
//   - every tick sends a hop into one of 12 link lanes, each with a fixed
//     delay of 0.1–1.2 ms;
//   - 2,000 binding-refresh timers in one class lane, re-armed 45 s out;
//   - 178 of the tickers reset a 120 ms guard timer of one class on every
//     tick, which keeps about 890 cancelled entries in its lane;
//   - 2,000 stops pushed at set-up, before the first step, over 10–1000 s:
//     the set-up lane sorts them once.
func BenchmarkSchedulerLaneMix(b *testing.B) {
	const (
		refreshes = 2000
		tickers   = 1060
		stops     = 2000
		guarded   = 178
		links     = 12
		period    = 20 * Millisecond
	)
	e := NewEngine()
	rng := NewRNG(1)
	hop := func() {}
	var hops [links]Lane
	for k := range hops {
		hops[k] = e.NewLane()
	}
	refreshLane := e.SharedLane("refresh")
	for i := 0; i < refreshes; i++ {
		var tm *Timer
		tm = NewTimerIn(e, refreshLane, func() { tm.Reset(45 * Second) })
		tm.Reset(rng.Jitter(45 * Second))
	}
	for i := 0; i < stops; i++ {
		e.Schedule(rng.Uniform(10*Second, 1000*Second), hop)
	}
	guardLane := e.SharedLane("guard")
	for i := 0; i < tickers; i++ {
		var guard *Timer
		if i < guarded {
			guard = NewTimerIn(e, guardLane, hop)
		}
		k := i % links
		NewTickerAt(e, rng.Jitter(period), period, func() {
			e.ScheduleIn(hops[k], Time(k+1)*100*Microsecond, hop)
			if guard != nil {
				guard.Reset(6 * period)
			}
		})
	}
	// Let the guard timers fill their cancelled backlog.
	if err := e.Run(10 * period); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkSchedulerShallowMix holds the queue mix a small thesis topology
// keeps pending, 21 queued entries on average (the thesis-figures census
// reads 22), and fires one event per operation:
//   - 8 tickers with a 20 ms period in four pairs that share a phase, as
//     flows started together do, so equal instants are common; each tick
//     sends a short hop 0–1.5 ms out;
//   - 2 beacons with a 100 ms period;
//   - 4 binding-refresh timers, re-armed 5–15 s out;
//   - one ticker resets a 120 ms guard timer on every tick, which keeps
//     about 6 cancelled entries queued.
//
// No lane is declared, and the set-up pushes wait in the set-up lane only
// until they fire, early in the run, so this holds the cost of a shallow
// heap.
func BenchmarkSchedulerShallowMix(b *testing.B) {
	const period = 20 * Millisecond
	e := NewEngine()
	rng := NewRNG(1)
	hop := func() {}
	var refresh, beacon Handler
	refresh = func() { e.Schedule(rng.Uniform(5*Second, 15*Second), refresh) }
	beacon = func() { e.Schedule(100*Millisecond, beacon) }
	for i := 0; i < 4; i++ {
		e.Schedule(rng.Jitter(15*Second), refresh)
	}
	for i := 0; i < 2; i++ {
		e.Schedule(rng.Jitter(100*Millisecond), beacon)
	}
	guard := NewTimer(e, hop)
	for i := 0; i < 8; i++ {
		var tick Handler
		tick = func() {
			e.Schedule(period, tick)
			e.Schedule(rng.Jitter(1500*Microsecond), hop)
			if i == 0 {
				guard.Reset(6 * period)
			}
		}
		e.Schedule(Time(i/2)*period/4, tick)
	}
	if err := e.Run(10 * period); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkRetransmissionCancel models the signaling retransmission-timer
// pattern: batches of timers armed together of which 90% are cancelled
// before firing (the exchange succeeded), exercising the lazy-delete
// Cancel and the compaction sweep.
func BenchmarkRetransmissionCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	refs := make([]EventRef, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refs = refs[:0]
		for j := 0; j < 100; j++ {
			refs = append(refs, e.Schedule(100*Millisecond, fn))
		}
		for j, ref := range refs {
			if j%10 != 0 { // 90% cancelled before their deadline
				e.Cancel(ref)
			}
		}
		if err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
