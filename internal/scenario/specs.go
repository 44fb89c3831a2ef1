package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// This file exposes the thesis experiments as runner.Spec values: each
// spec is a seedable constructor that runs one full replica of a scenario
// and reports its headline metrics as scalars. Specs are pure functions
// of the seed — a replica's engine carries only capacity (free lists,
// queue storage) between runs, never results — so they are safe to fan
// out across the runner's worker pool. The params' Seed field is
// overridden by the per-replica derived seed.

// classSuffix labels the three-flow scenarios' per-class metrics.
var classSuffix = [3]string{"rt", "hp", "be"}

// scratchSpec adapts an engine-parameterized scenario function into a
// runner.ScratchSpec: the worker pool hands each worker a private engine
// (reset between replicas, keeping its warmed-up event free list and queue
// capacity). Plain Run — used outside the pool — passes a nil engine, so
// the scenario builds a fresh one per replica; both paths produce
// bit-for-bit identical metrics (see Engine.Reset).
type scratchSpec struct {
	name string
	// desc is a one-line human summary of the scenario and its parameters
	// (scheme, pool sizing, axis), surfaced by `experiments -list`.
	desc string
	run  func(engine *sim.Engine, seed int64) runner.Metrics
}

func (s scratchSpec) Name() string { return s.name }

// Describe returns the spec's one-line scenario/parameter summary.
func (s scratchSpec) Describe() string { return s.desc }

func (s scratchSpec) Run(seed int64) (runner.Metrics, error) { return s.run(nil, seed), nil }

func (s scratchSpec) NewScratch() any { return sim.NewEngine() }

func (s scratchSpec) RunScratch(scratch any, seed int64) (runner.Metrics, error) {
	return s.run(scratch.(*sim.Engine), seed), nil
}

var _ runner.ScratchSpec = scratchSpec{}

// Specs returns every experiment available to the Monte-Carlo runner, in
// thesis order.
func Specs() []runner.Spec {
	return []runner.Spec{
		Fig42Spec(Fig42Params{}),
		DropTraceSpec("fig4.3", DropTraceParams{Scheme: core.SchemeFHOriginal, PoolSize: 40, Handoffs: 100}),
		DropTraceSpec("fig4.4", DropTraceParams{Scheme: core.SchemeDual, PoolSize: 20, Handoffs: 100}),
		DropTraceSpec("fig4.5", DropTraceParams{Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: 6, Handoffs: 100}),
		Fig46Spec(Fig46Params{}),
		DelayTraceSpec("fig4.7", DelayTraceParams{Scheme: core.SchemeFHOriginal, PoolSize: 40}),
		DelayTraceSpec("fig4.8", DelayTraceParams{Scheme: core.SchemeDual, PoolSize: 20}),
		DelayTraceSpec("fig4.9", DelayTraceParams{
			Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2, ARLinkDelay: 2 * sim.Millisecond,
		}),
		DelayTraceSpec("fig4.10", DelayTraceParams{
			Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2, ARLinkDelay: 50 * sim.Millisecond,
		}),
		TCPTraceSpec("fig4.12", false),
		TCPTraceSpec("fig4.13", true),
		BaselineSpec(),
		LatencySpec(10),
		LossSweepSpec(),
		MetroSpec(MetroParams{}),
		// The SafetyNet competitor on the same drop/delay scenarios the
		// buffering schemes run (no thesis figure numbers: the scheme is
		// from the related SafetyNet work, not the thesis).
		DropTraceSpec("drop-sfn", DropTraceParams{Scheme: core.SchemeSafetyNet, PoolSize: 40, Handoffs: 100}),
		DelayTraceSpec("delay-sfn", DelayTraceParams{Scheme: core.SchemeSafetyNet, PoolSize: 40}),
		CitySpec(CityParams{}),
	}
}

// SpecByName returns the named spec, or an error naming the known specs.
func SpecByName(name string) (runner.Spec, error) {
	var known []string
	for _, spec := range Specs() {
		if spec.Name() == name {
			return spec, nil
		}
		known = append(known, spec.Name())
	}
	return nil, fmt.Errorf("unknown spec %q (have: %v)", name, known)
}

// Fig42Spec wraps the buffer-utilization experiment (Figure 4.2) as a
// seedable runner spec reporting the loss-free capacities per scheme.
func Fig42Spec(p Fig42Params) runner.Spec {
	return scratchSpec{
		name: "fig4.2",
		desc: "loss-free buffer capacity per placement (NAR/PAR/dual size sweep)",
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			p := p
			p.Seed = seed
			p.Engine = engine
			res := RunFig42(p)
			m := runner.Metrics{
				"capacity_nar":  float64(res.MaxLossFree("NAR")),
				"capacity_par":  float64(res.MaxLossFree("PAR")),
				"capacity_dual": float64(res.MaxLossFree("DUAL")),
			}
			fh := res.Drops["FH"]
			m["drops_fh_at_max"] = float64(fh[len(fh)-1])
			return m
		}}
}

// DropTraceSpec wraps a cumulative-drop experiment (Figures 4.3–4.5) as
// a seedable runner spec reporting the final per-class drop counts.
func DropTraceSpec(name string, p DropTraceParams) runner.Spec {
	d := p
	d.applyDefaults()
	return scratchSpec{
		name: name,
		desc: fmt.Sprintf("cumulative per-class drops: scheme=%s pool=%d alpha=%d handoffs=%d",
			d.Scheme, d.PoolSize, d.Alpha, d.Handoffs),
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			p := p
			p.Seed = seed
			p.Engine = engine
			res := RunDropTrace(p)
			final := res.Final()
			m := runner.Metrics{"handoffs": float64(res.Handoffs())}
			for k, suffix := range classSuffix {
				m["drops_"+suffix] = float64(final[k])
			}
			if p.Scheme == core.SchemeSafetyNet {
				m["dup_packets"] = float64(res.DupPackets)
				ratio := 0.0
				if res.TotalSent > 0 {
					ratio = float64(res.DupPackets) / float64(res.TotalSent)
				}
				m["overhead_ratio"] = ratio
			}
			return m
		}}
}

// Fig46Spec wraps the data-rate sweep (Figure 4.6) as a seedable runner
// spec reporting the per-class losses at the highest rate.
func Fig46Spec(p Fig46Params) runner.Spec {
	return scratchSpec{
		name: "fig4.6",
		desc: "per-class loss vs data rate (enhanced scheme, rate sweep)",
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			p := p
			p.Seed = seed
			p.Engine = engine
			res := RunFig46(p)
			last := res.Rows[len(res.Rows)-1]
			m := runner.Metrics{}
			for k, suffix := range classSuffix {
				m["lost_"+suffix+"_at_max_rate"] = float64(last.Lost[k])
			}
			return m
		}}
}

// DelayTraceSpec wraps an end-to-end-delay experiment (Figures 4.7–4.10)
// as a seedable runner spec reporting per-class maximum delay and loss.
func DelayTraceSpec(name string, p DelayTraceParams) runner.Spec {
	d := p
	d.applyDefaults()
	return scratchSpec{
		name: name,
		desc: fmt.Sprintf("per-packet delay around one handoff: scheme=%s pool=%d alpha=%d arlink=%v",
			d.Scheme, d.PoolSize, d.Alpha, d.ARLinkDelay),
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			p := p
			p.Seed = seed
			p.Engine = engine
			res := RunDelayTrace(p)
			m := runner.Metrics{}
			for k, suffix := range classSuffix {
				m["max_delay_ms_"+suffix] = res.MaxDelay(k).Milliseconds()
				m["lost_"+suffix] = float64(res.Lost[k])
			}
			return m
		}}
}

// TCPTraceSpec wraps a link-layer handoff TCP experiment (Figures
// 4.12/4.13) as a seedable runner spec.
func TCPTraceSpec(name string, buffered bool) runner.Spec {
	mode := "without buffering"
	if buffered {
		mode = "link-layer buffering enabled"
	}
	return scratchSpec{
		name: name,
		desc: "TCP sequence/stall across a link-layer handoff, " + mode,
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			res := RunTCPTrace(TCPTraceParams{Buffered: buffered, Seed: seed, Engine: engine})
			return runner.Metrics{
				"tcp_timeouts":    float64(res.Timeouts),
				"stall_ms":        res.StallAfterDetach.Milliseconds(),
				"delivered_bytes": float64(res.Delivered),
			}
		}}
}

// BaselineSpec wraps the mobility-management ladder as a seedable runner
// spec reporting per-rung loss and outage.
func BaselineSpec() runner.Spec {
	return scratchSpec{
		name: "baseline",
		desc: "mobility-management ladder: plain MIP / HMIP / FH no-buffer / enhanced",
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			res := runBaselineLadder(seed, engine)
			slugs := [4]string{"plain_mip", "hmip", "fh_nobuf", "enhanced"}
			if len(res.Rows) != len(slugs) {
				panic(fmt.Sprintf("baseline spec: %d rows, want %d", len(res.Rows), len(slugs)))
			}
			m := runner.Metrics{}
			for i, row := range res.Rows {
				m["lost_"+slugs[i]] = float64(row.Lost)
				m["outage_ms_"+slugs[i]] = row.Outage.Milliseconds()
			}
			return m
		}}
}

// LatencySpec wraps the handover-latency breakdown as a seedable runner
// spec reporting the mean component latencies.
func LatencySpec(handoffs int) runner.Spec {
	return scratchSpec{
		name: "latency",
		desc: fmt.Sprintf("handover latency breakdown (anticipation/blackout/interruption, %d handoffs)", handoffs),
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			res := runLatencyBreakdownEngine(handoffs, seed, engine)
			return runner.Metrics{
				"anticipation_ms": res.Anticipation.Mean(),
				"blackout_ms":     res.Blackout.Mean(),
				"interruption_ms": res.Interruption.Mean(),
			}
		}}
}
