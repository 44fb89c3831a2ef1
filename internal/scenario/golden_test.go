package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestSchedulerGoldenDeterminism is the golden determinism guard: a full
// figure scenario must render byte-identical output on a fresh engine, on
// a reused engine (Reset between runs, the runner-pool scratch path), and
// on the scenario's own default engine. Any divergence means recycling
// leaked state across runs.
func TestSchedulerGoldenDeterminism(t *testing.T) {
	render := func(engine *sim.Engine) string {
		return RunDelayTrace(DelayTraceParams{
			Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2,
			ARLinkDelay: 2 * sim.Millisecond, Engine: engine,
		}).Render()
	}
	engine := sim.NewEngine()

	want := render(engine)
	if got := render(engine); got != want {
		t.Fatalf("reused engine diverged after Reset:\n--- fresh ---\n%s\n--- reused ---\n%s", want, got)
	}
	if got := render(nil); got != want {
		t.Fatalf("default engine diverged from explicit engine:\n%s", got)
	}

	// The SafetyNet data path (anchor bicast fan-out, NAR hold window,
	// selective drain) runs through the same engines: its renders — drop
	// trace with the overhead footer, and delay trace — must be equally
	// reuse-independent.
	renderSfn := func(engine *sim.Engine) string {
		drop := RunDropTrace(DropTraceParams{
			Scheme: core.SchemeSafetyNet, PoolSize: 40, Handoffs: 4, Engine: engine,
		}).Render()
		delay := RunDelayTrace(DelayTraceParams{
			Scheme: core.SchemeSafetyNet, PoolSize: 40, Engine: engine,
		}).Render()
		return drop + "\n" + delay
	}
	fresh := sim.NewEngine()
	wantSfn := renderSfn(fresh)
	if got := renderSfn(engine); got != wantSfn {
		t.Fatalf("safetynet: reused engine diverged after Reset:\n--- fresh ---\n%s\n--- reused ---\n%s", wantSfn, got)
	}
	if got := renderSfn(nil); got != wantSfn {
		t.Fatal("safetynet: default engine diverged from explicit engine")
	}
}
