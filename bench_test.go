package repro_test

// One benchmark per figure of the thesis' evaluation chapter. Each
// benchmark runs the figure's full scenario and reports its headline
// metric through b.ReportMetric, so `go test -bench .` regenerates the
// quantitative backbone of every figure. The richer text renderings come
// from `go run ./cmd/experiments`.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func BenchmarkFig42BufferUtilization(b *testing.B) {
	b.ReportAllocs()
	var res scenario.Fig42Result
	for i := 0; i < b.N; i++ {
		res = scenario.RunFig42(scenario.Fig42Params{MaxHosts: 12})
	}
	b.ReportMetric(float64(res.MaxLossFree("NAR")), "nar-capacity")
	b.ReportMetric(float64(res.MaxLossFree("PAR")), "par-capacity")
	b.ReportMetric(float64(res.MaxLossFree("DUAL")), "dual-capacity")
	b.ReportMetric(float64(res.Drops["FH"][11]), "fh-drops@12")
}

func benchDropTrace(b *testing.B, scheme core.Scheme, pool, alpha int) {
	b.Helper()
	b.ReportAllocs()
	var res scenario.DropTraceResult
	for i := 0; i < b.N; i++ {
		res = scenario.RunDropTrace(scenario.DropTraceParams{
			Scheme: scheme, PoolSize: pool, Alpha: alpha, Handoffs: 20,
		})
	}
	final := res.Final()
	b.ReportMetric(float64(final[0]), "rt-drops")
	b.ReportMetric(float64(final[1]), "hp-drops")
	b.ReportMetric(float64(final[2]), "be-drops")
}

func BenchmarkFig43OriginalFHDrops(b *testing.B) {
	b.ReportAllocs()
	benchDropTrace(b, core.SchemeFHOriginal, 40, 0)
}

func BenchmarkFig44ClassDisabledDrops(b *testing.B) {
	b.ReportAllocs()
	benchDropTrace(b, core.SchemeDual, 20, 0)
}

func BenchmarkFig45ClassEnabledDrops(b *testing.B) {
	b.ReportAllocs()
	benchDropTrace(b, core.SchemeEnhanced, 20, 6)
}

func BenchmarkFig46RateSweep(b *testing.B) {
	b.ReportAllocs()
	var res scenario.Fig46Result
	for i := 0; i < b.N; i++ {
		res = scenario.RunFig46(scenario.Fig46Params{})
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(last.Lost[0]), "rt-drops@427k")
	b.ReportMetric(float64(last.Lost[1]), "hp-drops@427k")
	b.ReportMetric(float64(last.Lost[2]), "be-drops@427k")
}

func benchDelayTrace(b *testing.B, p scenario.DelayTraceParams) {
	b.Helper()
	b.ReportAllocs()
	var res scenario.DelayTraceResult
	for i := 0; i < b.N; i++ {
		res = scenario.RunDelayTrace(p)
	}
	b.ReportMetric(res.MaxDelay(0).Milliseconds(), "rt-maxdelay-ms")
	b.ReportMetric(res.MaxDelay(1).Milliseconds(), "hp-maxdelay-ms")
	b.ReportMetric(res.MaxDelay(2).Milliseconds(), "be-maxdelay-ms")
}

func BenchmarkFig47OriginalFHDelay(b *testing.B) {
	b.ReportAllocs()
	benchDelayTrace(b, scenario.DelayTraceParams{
		Scheme: core.SchemeFHOriginal, PoolSize: 40,
	})
}

func BenchmarkFig48ProposedDelay(b *testing.B) {
	b.ReportAllocs()
	benchDelayTrace(b, scenario.DelayTraceParams{
		Scheme: core.SchemeDual, PoolSize: 20,
	})
}

func BenchmarkFig49LowARLinkDelay(b *testing.B) {
	b.ReportAllocs()
	benchDelayTrace(b, scenario.DelayTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2,
		ARLinkDelay: 2 * sim.Millisecond,
	})
}

func BenchmarkFig410HighARLinkDelay(b *testing.B) {
	b.ReportAllocs()
	benchDelayTrace(b, scenario.DelayTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2,
		ARLinkDelay: 50 * sim.Millisecond,
	})
}

func benchTCPTrace(b *testing.B, buffered bool) {
	b.Helper()
	b.ReportAllocs()
	var res scenario.TCPTraceResult
	for i := 0; i < b.N; i++ {
		res = scenario.RunTCPTrace(scenario.TCPTraceParams{Buffered: buffered})
	}
	b.ReportMetric(float64(res.Timeouts), "tcp-timeouts")
	b.ReportMetric(res.StallAfterDetach.Milliseconds(), "stall-ms")
	b.ReportMetric(float64(res.Delivered)/1e6, "delivered-MB")
}

func BenchmarkFig412TCPNoBuffer(b *testing.B) {
	b.ReportAllocs()
	benchTCPTrace(b, false)
}

func BenchmarkFig413TCPBuffered(b *testing.B) {
	b.ReportAllocs()
	benchTCPTrace(b, true)
}

func BenchmarkFig414Throughput(b *testing.B) {
	b.ReportAllocs()
	var res scenario.Fig414Result
	for i := 0; i < b.N; i++ {
		res = scenario.RunFig414(0, nil)
	}
	b.ReportMetric(float64(res.Buffered.Delivered-res.Unbuffered.Delivered)/1e6,
		"buffering-gain-MB")
}

// BenchmarkBaselineLadder reports the Chapter 2 motivation: handoff loss
// down the mobility-management ladder from plain Mobile IP to the full
// enhanced scheme.
func BenchmarkBaselineLadder(b *testing.B) {
	b.ReportAllocs()
	var res scenario.BaselineResult
	for i := 0; i < b.N; i++ {
		res = scenario.RunBaseline(0, nil)
	}
	b.ReportMetric(float64(res.Rows[0].Lost), "plain-mip-lost")
	b.ReportMetric(float64(res.Rows[1].Lost), "hmip-lost")
	b.ReportMetric(float64(res.Rows[2].Lost), "fh-lost")
	b.ReportMetric(float64(res.Rows[3].Lost), "enhanced-lost")
	b.ReportMetric(res.Rows[0].Outage.Milliseconds(), "plain-mip-outage-ms")
	b.ReportMetric(res.Rows[3].Outage.Milliseconds(), "enhanced-outage-ms")
}

// --- ablation benchmarks (design choices DESIGN.md calls out) ---

// BenchmarkAblationAlpha sweeps the α threshold: larger α protects more
// high-priority overflow at the PAR at the cost of best-effort drops.
func BenchmarkAblationAlpha(b *testing.B) {
	b.ReportAllocs()
	for _, alpha := range []int{0, 2, 6, 10} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			b.ReportAllocs()
			var res scenario.DropTraceResult
			for i := 0; i < b.N; i++ {
				res = scenario.RunDropTrace(scenario.DropTraceParams{
					Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: alpha, Handoffs: 10,
				})
			}
			final := res.Final()
			b.ReportMetric(float64(final[1]), "hp-drops")
			b.ReportMetric(float64(final[2]), "be-drops")
		})
	}
}

// BenchmarkAblationTCPVariant compares classic Reno against NewReno across
// the unbuffered link-layer handoff: the blackout loses a whole window, so
// both need the coarse timeout, but NewReno repairs the multi-hole window
// in one recovery afterwards.
func BenchmarkAblationTCPVariant(b *testing.B) {
	b.ReportAllocs()
	for _, newReno := range []bool{false, true} {
		newReno := newReno
		name := "reno"
		if newReno {
			name = "newreno"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var delivered uint64
			for i := 0; i < b.N; i++ {
				tb := scenario.NewWLANTestbed(scenario.WLANParams{NewReno: newReno})
				if err := tb.Run(20 * sim.Second); err != nil {
					b.Fatal(err)
				}
				delivered = tb.Receiver.Delivered()
			}
			b.ReportMetric(float64(delivered)/1e6, "delivered-MB")
		})
	}
}

// BenchmarkAblationHysteresis sweeps the trigger hysteresis: the margin
// buys flap resistance but spends the coverage-overlap budget; past
// ≈1.5 dB (this geometry's edge margin) anticipation fails and losses jump
// to a whole blackout's worth.
func BenchmarkAblationHysteresis(b *testing.B) {
	b.ReportAllocs()
	for _, hyst := range []float64{0, 1, 6} {
		hyst := hyst
		b.Run(fmt.Sprintf("hyst=%gdB", hyst), func(b *testing.B) {
			b.ReportAllocs()
			var lost uint64
			var anticipated bool
			for i := 0; i < b.N; i++ {
				lost, anticipated = scenario.HysteresisCost(hyst)
			}
			b.ReportMetric(float64(lost), "lost")
			antic := 0.0
			if anticipated {
				antic = 1
			}
			b.ReportMetric(antic, "anticipated")
		})
	}
}

// BenchmarkAblationDrainPacing sweeps the buffer drain pacing: line-rate
// release empties fastest; pacing trades release burstiness for tail
// delay.
func BenchmarkAblationDrainPacing(b *testing.B) {
	b.ReportAllocs()
	for _, pace := range []sim.Time{0, 2 * sim.Millisecond, 10 * sim.Millisecond} {
		pace := pace
		b.Run(fmt.Sprintf("pace=%.0fms", pace.Milliseconds()), func(b *testing.B) {
			b.ReportAllocs()
			var res scenario.DelayTraceResult
			for i := 0; i < b.N; i++ {
				res = scenario.RunDelayTrace(scenario.DelayTraceParams{
					Scheme: core.SchemeDual, PoolSize: 20, DrainInterval: pace,
				})
			}
			b.ReportMetric(res.MaxDelay(1).Milliseconds(), "hp-maxdelay-ms")
		})
	}
}

// BenchmarkTransferTime measures a 20 MB FTP download spanning the
// link-layer handoff: the buffering removes the timeout stall from the
// completion time.
func BenchmarkTransferTime(b *testing.B) {
	b.ReportAllocs()
	var buffered, unbuffered sim.Time
	for i := 0; i < b.N; i++ {
		buffered, unbuffered = scenario.TransferTime(20_000_000)
	}
	b.ReportMetric(buffered.Seconds(), "buffered-s")
	b.ReportMetric(unbuffered.Seconds(), "unbuffered-s")
	b.ReportMetric((unbuffered - buffered).Seconds(), "stall-cost-s")
}

// --- Monte-Carlo runner benchmarks ---

// benchRunnerPool fans replicasPerOp seeded replicas of the mobility
// ladder across the given worker bound. Comparing the Serial and
// Parallel variants measures the pool's actual speedup (≈ min(cores,
// replicas)× on a multi-core box; ≈ 1× on one core).
func benchRunnerPool(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	const replicasPerOp = 8
	spec, err := scenario.SpecByName("baseline")
	if err != nil {
		b.Fatal(err)
	}
	pool := runner.NewPool(workers)
	b.ResetTimer()
	var res *runner.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pool.Run(context.Background(), spec, replicasPerOp, 1)
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Failed(); n > 0 {
			b.Fatalf("%d replicas failed: %v", n, res.FirstErr())
		}
	}
	for _, m := range res.Metrics {
		if m.Name == "lost_enhanced" {
			b.ReportMetric(m.Mean, "enhanced-lost-mean")
			b.ReportMetric(m.CI95, "enhanced-lost-ci95")
		}
	}
}

func BenchmarkRunnerSerial(b *testing.B) { benchRunnerPool(b, 1) }

func BenchmarkRunnerParallel(b *testing.B) { benchRunnerPool(b, runtime.GOMAXPROCS(0)) }

// BenchmarkAblationSignaling reports the control-message economy: the
// scheme piggybacks its options, so an anticipated handoff costs a fixed,
// small number of messages regardless of buffering.
func BenchmarkAblationSignaling(b *testing.B) {
	b.ReportAllocs()
	for _, scheme := range []core.Scheme{core.SchemeFHNoBuffer, core.SchemeEnhanced} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			var total uint64
			for i := 0; i < b.N; i++ {
				total = scenario.CountControlMessages(scheme)
			}
			b.ReportMetric(float64(total), "control-msgs/handoff")
		})
	}
}
