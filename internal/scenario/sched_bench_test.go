package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// BenchmarkDelayTrace runs a full figure workload on a reused engine, so
// allocation warm-up is excluded.
func BenchmarkDelayTrace(b *testing.B) {
	b.ReportAllocs()
	engine := sim.NewEngine()
	for i := 0; i < b.N; i++ {
		RunDelayTrace(DelayTraceParams{
			Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2,
			ARLinkDelay: 2 * sim.Millisecond, Engine: engine,
		})
	}
}
