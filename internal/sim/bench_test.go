package sim

import "testing"

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
func BenchmarkSchedulerChurn(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	fn := func() {}
	const window = 4096
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
// are live, and fires one event per operation:
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
