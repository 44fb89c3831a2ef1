package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// The experiment tests assert the thesis' qualitative results — who wins,
// by roughly what factor, where the crossovers fall — not absolute numbers.

func TestFig42Shape(t *testing.T) {
	res := RunFig42(Fig42Params{MaxHosts: 14})

	nar := res.MaxLossFree("NAR")
	par := res.MaxLossFree("PAR")
	dual := res.MaxLossFree("DUAL")
	fh := res.MaxLossFree("FH")

	// The thesis: single-buffer placements serve pool/request hosts
	// loss-free; DUAL roughly doubles that; plain FH always loses.
	if nar != 4 {
		t.Errorf("NAR loss-free capacity = %d, want 4 (50-packet pool / 12 per host)", nar)
	}
	if par != 4 {
		t.Errorf("PAR loss-free capacity = %d, want 4", par)
	}
	if dual < 2*nar-1 || dual > 2*nar+1 {
		t.Errorf("DUAL loss-free capacity = %d, want ≈2× NAR's %d", dual, nar)
	}
	if fh != 0 {
		t.Errorf("FH loss-free capacity = %d, want 0 (no buffering)", fh)
	}

	// Drops grow monotonically (within jitter) once capacity is exceeded.
	for _, label := range []string{"NAR", "PAR", "DUAL", "FH"} {
		series := res.Drops[label]
		if series[len(series)-1] <= series[0] && label != "DUAL" && label != "NAR" && label != "PAR" {
			t.Errorf("%s drops do not grow with load: %v", label, series)
		}
	}
	if !strings.Contains(res.Render(), "Figure 4.2") {
		t.Error("Render missing header")
	}
}

func TestFig43EqualClassesUnderOriginalFH(t *testing.T) {
	res := RunDropTrace(DropTraceParams{
		Scheme: core.SchemeFHOriginal, PoolSize: 40, Handoffs: 12,
	})
	if res.Handoffs() < 10 {
		t.Fatalf("recorded %d handoffs, want ≥10", res.Handoffs())
	}
	final := res.Final()
	total := final[0] + final[1] + final[2]
	if total == 0 {
		t.Fatal("no drops at all; buffers were not stressed")
	}
	// All classes suffer alike (no QoS in original FH): each flow within
	// 25% of the mean.
	mean := float64(total) / 3
	for k, v := range final {
		if f := float64(v); f < mean*0.75 || f > mean*1.25 {
			t.Errorf("flow %d lost %d, diverges from classless mean %.1f (all: %v)",
				k+1, v, mean, final)
		}
	}
	// Drops accumulate roughly linearly: the half-way count is near half
	// the final count.
	half := res.Cumulative[0][res.Handoffs()/2-1] + res.Cumulative[1][res.Handoffs()/2-1] +
		res.Cumulative[2][res.Handoffs()/2-1]
	if float64(half) < float64(total)*0.3 || float64(half) > float64(total)*0.7 {
		t.Errorf("drop growth not linear: half-way %d vs final %d", half, total)
	}
}

func TestFig44ClassDisabledEqualFates(t *testing.T) {
	res := RunDropTrace(DropTraceParams{
		Scheme: core.SchemeDual, PoolSize: 20, Handoffs: 12,
	})
	final := res.Final()
	total := final[0] + final[1] + final[2]
	if total == 0 {
		t.Fatal("no drops; dual buffers not stressed")
	}
	mean := float64(total) / 3
	for k, v := range final {
		if f := float64(v); f < mean*0.7 || f > mean*1.3 {
			t.Errorf("flow %d lost %d vs classless mean %.1f (all: %v)", k+1, v, mean, final)
		}
	}
}

func TestFig45ClassEnabledProtectsHighPriority(t *testing.T) {
	res := RunDropTrace(DropTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: 6, Handoffs: 12,
	})
	final := res.Final()
	if final[1]*3 >= final[0] || final[1]*3 >= final[2] {
		t.Errorf("high-priority drops not greatly reduced: rt=%d hp=%d be=%d",
			final[0], final[1], final[2])
	}
}

func TestFig45TotalsComparableToFig44(t *testing.T) {
	// "the QoS function does not result in additional packet drops":
	// class-enabled total within 35% of class-disabled total.
	enabled := RunDropTrace(DropTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: 6, Handoffs: 10,
	}).Final()
	disabled := RunDropTrace(DropTraceParams{
		Scheme: core.SchemeDual, PoolSize: 20, Handoffs: 10,
	}).Final()
	te := float64(enabled[0] + enabled[1] + enabled[2])
	td := float64(disabled[0] + disabled[1] + disabled[2])
	if td == 0 {
		t.Fatal("class-disabled run had no drops")
	}
	if te < td*0.65 || te > td*1.35 {
		t.Errorf("total drops diverge: enabled %.0f vs disabled %.0f", te, td)
	}
}

func TestFig46HighPriorityAlwaysLowest(t *testing.T) {
	res := RunFig46(Fig46Params{})
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 sweep points", len(res.Rows))
	}
	sawLoss := false
	for _, row := range res.Rows {
		if row.Lost[0]+row.Lost[1]+row.Lost[2] > 0 {
			sawLoss = true
		}
		if row.Lost[1] > row.Lost[0] || row.Lost[1] > row.Lost[2] {
			t.Errorf("at %.1f kb/s the high-priority flow lost most: %v",
				row.RateKbps, row.Lost)
		}
	}
	if !sawLoss {
		t.Error("no losses across the whole sweep; rates too low")
	}
	// Losses grow with rate: the last row outweighs the first.
	first := res.Rows[0]
	last := res.Rows[len(res.Rows)-1]
	if last.Lost[0]+last.Lost[2] <= first.Lost[0]+first.Lost[2] {
		t.Errorf("losses do not grow with data rate: first %v, last %v",
			first.Lost, last.Lost)
	}
}

func TestFig47vs48DelayImprovement(t *testing.T) {
	orig := RunDelayTrace(DelayTraceParams{Scheme: core.SchemeFHOriginal, PoolSize: 40})
	dual := RunDelayTrace(DelayTraceParams{Scheme: core.SchemeDual, PoolSize: 20})

	// Both buffer everything across the blackout: max delays near the
	// 200 ms blackout.
	for k := 0; k < 3; k++ {
		if orig.MaxDelay(k) < 150*sim.Millisecond {
			t.Errorf("fig4.7 flow %d max delay %v; expected a blackout's worth",
				k+1, orig.MaxDelay(k))
		}
	}
	// The proposed method drains two buffers in parallel: its worst delay
	// must not exceed the original's (the thesis' "smaller summary
	// delay").
	var worstOrig, worstDual sim.Time
	for k := 0; k < 3; k++ {
		if d := orig.MaxDelay(k); d > worstOrig {
			worstOrig = d
		}
		if d := dual.MaxDelay(k); d > worstDual {
			worstDual = d
		}
	}
	if worstDual > worstOrig {
		t.Errorf("proposed max delay %v exceeds original %v", worstDual, worstOrig)
	}
}

func TestFig49vs410LinkDelaySeparation(t *testing.T) {
	low := RunDelayTrace(DelayTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2, ARLinkDelay: 2 * sim.Millisecond,
	})
	high := RunDelayTrace(DelayTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2, ARLinkDelay: 50 * sim.Millisecond,
	})

	// Low link delay: all flows within ~60 ms of each other (Figure 4.9).
	var lo, hi sim.Time = sim.MaxTime, 0
	for k := 0; k < 3; k++ {
		d := low.MaxDelay(k)
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo > 60*sim.Millisecond {
		t.Errorf("2 ms link: per-class max delays spread %v, want tight", hi-lo)
	}

	// High link delay: best-effort (PAR-buffered) delayed well beyond
	// real-time (NAR-buffered) — Figure 4.10.
	rt, be := high.MaxDelay(0), high.MaxDelay(2)
	if be-rt < 40*sim.Millisecond {
		t.Errorf("50 ms link: BE max delay %v not separated from RT %v", be, rt)
	}
	// And the real-time flow is insensitive to the link delay.
	diff := high.MaxDelay(0) - low.MaxDelay(0)
	if diff < 0 {
		diff = -diff
	}
	if diff > 40*sim.Millisecond {
		t.Errorf("real-time delay moved by %v with the AR link; should be insensitive", diff)
	}
}

func TestFig412vs413TCPStall(t *testing.T) {
	unbuf := RunTCPTrace(TCPTraceParams{Buffered: false})
	buf := RunTCPTrace(TCPTraceParams{Buffered: true})

	if unbuf.Timeouts == 0 {
		t.Error("fig4.12: no TCP timeout without buffering")
	}
	if unbuf.StallAfterDetach < sim.Second || unbuf.StallAfterDetach > 1800*sim.Millisecond {
		t.Errorf("fig4.12 stall = %v, want 1–1.5 s class", unbuf.StallAfterDetach)
	}
	if buf.Timeouts != 0 {
		t.Errorf("fig4.13: %d timeouts despite buffering", buf.Timeouts)
	}
	// Buffered reception resumes right at re-attach (blackout + drain).
	if buf.StallAfterDetach > 400*sim.Millisecond {
		t.Errorf("fig4.13 stall = %v, want ≈ blackout only", buf.StallAfterDetach)
	}
	if buf.Delivered <= unbuf.Delivered {
		t.Errorf("fig4.14: buffered %d ≤ unbuffered %d bytes", buf.Delivered, unbuf.Delivered)
	}
}

// TestExperimentRegistryRuns checks the one experiment table: unique
// figure IDs and spec names, a description for every spec, Specs derived
// from the table in order, and every spec the benchmark harness looks up.
func TestExperimentRegistryRuns(t *testing.T) {
	seen := make(map[string]bool)
	specSeen := make(map[string]bool)
	var wantSpecs []string
	for _, exp := range Experiments() {
		if exp.ID == "" || exp.Title == "" || exp.Run == nil {
			t.Fatalf("incomplete experiment: %+v", exp)
		}
		if seen[exp.ID] {
			t.Fatalf("duplicate experiment %s", exp.ID)
		}
		seen[exp.ID] = true
		if exp.Spec == "" {
			continue
		}
		if exp.Desc == "" {
			t.Errorf("spec %s has no description", exp.Spec)
		}
		if specSeen[exp.Spec] {
			t.Fatalf("duplicate spec %s", exp.Spec)
		}
		specSeen[exp.Spec] = true
		wantSpecs = append(wantSpecs, exp.Spec)
	}
	want := []string{"4.2", "4.3", "4.4", "4.5", "4.6", "4.7", "4.8", "4.9", "4.10", "4.12", "4.13", "4.14"}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("figure %s missing from the registry", id)
		}
	}

	if specSeen["city"] {
		t.Error("a table entry claims the city spec name")
	}
	wantSpecs = append(wantSpecs, "city")
	var gotSpecs []string
	for _, spec := range Specs() {
		gotSpecs = append(gotSpecs, spec.Name())
	}
	if !reflect.DeepEqual(gotSpecs, wantSpecs) {
		t.Errorf("Specs() = %v, want the table's specs then city: %v", gotSpecs, wantSpecs)
	}

	// The thesis-figures workload of the benchmark harness (perfbench's
	// figureSpecNames).
	for _, name := range []string{
		"fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "fig4.7", "fig4.8",
		"fig4.9", "fig4.10", "fig4.12", "fig4.13", "baseline", "latency",
		"loss-sweep", "drop-sfn", "delay-sfn",
	} {
		if _, err := SpecByName(name); err != nil {
			t.Errorf("SpecByName(%q): %v", name, err)
		}
	}
}

func TestBaselineLadderOrdering(t *testing.T) {
	res := RunBaseline(0, nil)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// Each rung of the ladder must do no worse than the previous one, and
	// the ends must be strictly separated: that is the thesis' Chapter 2
	// motivation in one table.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Lost > res.Rows[i-1].Lost {
			t.Errorf("%q lost %d > %q's %d",
				res.Rows[i].Name, res.Rows[i].Lost, res.Rows[i-1].Name, res.Rows[i-1].Lost)
		}
		if res.Rows[i].Outage > res.Rows[i-1].Outage {
			t.Errorf("%q outage %v > %q's %v",
				res.Rows[i].Name, res.Rows[i].Outage, res.Rows[i-1].Name, res.Rows[i-1].Outage)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Lost != 0 {
		t.Errorf("enhanced scheme lost %d packets", last.Lost)
	}
	if first.Lost < 10 || first.Outage < 300*sim.Millisecond {
		t.Errorf("plain Mobile IP too cheap: lost=%d outage=%v", first.Lost, first.Outage)
	}
}

func TestPlainMIPHandoffCompletes(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:         core.SchemeFHNoBuffer,
		Mobility:       core.MobilityPlainMIP,
		HomeAgentDelay: 50 * sim.Millisecond,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.Recorder.KeepSamples(unit.Flows[0])
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := unit.MH.Handoffs()
	if len(recs) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(recs))
	}
	if recs[0].Anticipated {
		t.Error("plain Mobile IP reported an anticipated handoff")
	}
	if recs[0].NARGranted || recs[0].PARGranted {
		t.Error("plain Mobile IP obtained buffer grants")
	}
	// Connectivity recovers through the home agent after registration.
	f := tb.Recorder.Flow(unit.Flows[0])
	if f.Delivered == 0 || f.Lost() == 0 {
		t.Errorf("implausible plain-MIP stats: delivered=%d lost=%d", f.Delivered, f.Lost())
	}
	var lastDelivery sim.Time
	for _, s := range keptDelays(t, f) {
		if s.At > lastDelivery {
			lastDelivery = s.At
		}
	}
	if lastDelivery < 11*sim.Second {
		t.Errorf("deliveries stopped at %v; registration never restored the path", lastDelivery)
	}
	// No fast-handover signalling happened.
	if tb.PAR.ControlSent(kindHI()) != 0 {
		t.Error("plain Mobile IP sent an HI")
	}
}

func TestFig45ProtectionHoldsAcrossSeeds(t *testing.T) {
	// The headline QoS claim is not a seed artifact: at every seed the
	// high-priority flow loses several times less than the others.
	for seed := int64(1); seed <= 3; seed++ {
		res := RunDropTrace(DropTraceParams{
			Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: 6, Handoffs: 6, Seed: seed,
		})
		final := res.Final()
		if final[1]*2 >= final[0] || final[1]*2 >= final[2] {
			t.Errorf("seed %d: protection failed: rt=%d hp=%d be=%d",
				seed, final[0], final[1], final[2])
		}
	}
}

func TestFig42DoublingHoldsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := RunFig42(Fig42Params{MaxHosts: 10, Seed: seed})
		nar, dual := res.MaxLossFree("NAR"), res.MaxLossFree("DUAL")
		if dual < 2*nar-1 {
			t.Errorf("seed %d: DUAL=%d < 2×NAR=%d−1", seed, dual, nar)
		}
	}
}
