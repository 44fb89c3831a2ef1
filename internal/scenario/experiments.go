package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Result is what every experiment returns: the text table of its figure
// and the scalar metrics the Monte-Carlo runner aggregates.
type Result interface {
	Render() string
	Metrics() runner.Metrics
}

// Experiment binds a figure of the thesis to the code that regenerates it
// and, when it has one, to its runner spec.
type Experiment struct {
	// ID is the figure number, e.g. "4.2".
	ID string
	// Title summarizes what the figure shows.
	Title string
	// Spec names the runner spec ("" when the figure has none); Desc is
	// its one-line scenario and parameter summary for `experiments -list`.
	Spec, Desc string
	// Run executes one replica. A nil engine builds a fresh one (see
	// Params.Engine); seed 0 selects the thesis default (seed 1), so
	// Run(nil, 0) prints the published tables.
	Run func(engine *sim.Engine, seed int64) Result
}

// Experiments lists every reproduced figure in thesis order. It returns a
// copy of experiments, so a caller may rebind an entry's Run.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// experiments is the one table of the evaluation, built once: Specs
// derives the runner specs from it.
var experiments = func() []Experiment {
	const latencyHandoffs = 10
	metro := MetroParams{}
	metro.applyDefaults()
	return []Experiment{
		{ID: "4.2", Title: "Buffer utilization of different handoff mechanisms",
			Spec: "fig4.2", Desc: "loss-free buffer capacity per placement (NAR/PAR/dual size sweep)",
			Run: func(engine *sim.Engine, seed int64) Result { return RunFig42(Fig42Params{Seed: seed, Engine: engine}) }},
		dropTrace("4.3", "fig4.3", "Packet drop rate, original fast handover (buffer=40)",
			DropTraceParams{Scheme: core.SchemeFHOriginal, PoolSize: 40, Handoffs: 100}),
		dropTrace("4.4", "fig4.4", "Packet drop rate, proposed method, classification disabled (buffer=20)",
			DropTraceParams{Scheme: core.SchemeDual, PoolSize: 20, Handoffs: 100}),
		dropTrace("4.5", "fig4.5", "Packet drop rate, proposed method, classification enabled (buffer=20)",
			DropTraceParams{Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: 6, Handoffs: 100}),
		{ID: "4.6", Title: "Packet loss for different data rates, proposed method",
			Spec: "fig4.6", Desc: "per-class loss vs data rate (enhanced scheme, rate sweep)",
			Run: func(engine *sim.Engine, seed int64) Result { return RunFig46(Fig46Params{Seed: seed, Engine: engine}) }},
		delayTrace("4.7", "fig4.7", "End-to-end delay, original fast handover (buffer=40)",
			DelayTraceParams{Scheme: core.SchemeFHOriginal, PoolSize: 40}),
		delayTrace("4.8", "fig4.8", "End-to-end delay, proposed method, classification disabled (buffer=20)",
			DelayTraceParams{Scheme: core.SchemeDual, PoolSize: 20}),
		delayTrace("4.9", "fig4.9", "End-to-end delay, classification enabled, 2 ms AR link",
			DelayTraceParams{Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2, ARLinkDelay: 2 * sim.Millisecond}),
		delayTrace("4.10", "fig4.10", "End-to-end delay, classification enabled, 50 ms AR link",
			DelayTraceParams{Scheme: core.SchemeEnhanced, PoolSize: 60, Alpha: 2, ARLinkDelay: 50 * sim.Millisecond}),
		tcpTrace("4.12", "fig4.12", "TCP sequence during a link-layer handoff, without buffering", false),
		tcpTrace("4.13", "fig4.13", "TCP sequence during a link-layer handoff, proposed method", true),
		// No spec: fig4.12 and fig4.13 run its two curves.
		{ID: "4.14", Title: "TCP throughput during a link-layer handoff",
			Run: func(engine *sim.Engine, seed int64) Result { return RunFig414(seed, engine) }},
		{ID: "baseline", Title: "Chapter 2 motivation: the mobility-management ladder",
			Spec: "baseline", Desc: "mobility-management ladder: plain MIP / HMIP / FH no-buffer / enhanced",
			Run: func(engine *sim.Engine, seed int64) Result { return RunBaseline(seed, engine) }},
		{ID: "latency", Title: "Handover latency breakdown (reference [12] analysis style)",
			Spec: "latency", Desc: fmt.Sprintf("handover latency breakdown (anticipation/blackout/interruption, %d handoffs)",
				latencyHandoffs),
			Run: func(engine *sim.Engine, seed int64) Result {
				return RunLatencyBreakdown(latencyHandoffs, seed, engine)
			}},
		{ID: "loss", Title: "Handoff resilience under injected control-plane loss",
			Spec: "loss-sweep", Desc: "handoff resilience under injected control loss: schemes enh/fho/sfn × rates 0-10%",
			Run: func(engine *sim.Engine, seed int64) Result {
				return RunLossSweep(LossSweepParams{Seed: seed, Engine: engine})
			}},
		{ID: "metro", Title: "Metro-scale mass handoff: shared buffer pools under thousands of hosts",
			Spec: "metro", Desc: fmt.Sprintf("mass-handoff pool pressure: variants nar/dual/sfn, pool=%d demand=%d hosts up to %d",
				metro.PoolSize, metro.BufferRequest, metro.Hosts[len(metro.Hosts)-1]),
			Run: func(engine *sim.Engine, seed int64) Result { return RunMetro(MetroParams{Seed: seed, Engine: engine}) }},
		// The SafetyNet competitor on the same drop/delay scenarios the
		// buffering schemes run (no thesis figure numbers: the scheme is
		// from the related SafetyNet work, not the thesis).
		dropTrace("drop-sfn", "drop-sfn", "Packet drop rate, SafetyNet bicast with selective delivery (no AR buffering)",
			DropTraceParams{Scheme: core.SchemeSafetyNet, PoolSize: 40, Handoffs: 100}),
		delayTrace("delay-sfn", "delay-sfn", "End-to-end delay, SafetyNet bicast with selective delivery",
			DelayTraceParams{Scheme: core.SchemeSafetyNet, PoolSize: 40}),
		// No spec here: the runner's city is the reduced CitySpec, which
		// Specs appends.
		{ID: "city", Title: "Sharded city-scale handoff wave: 50 AR domains, 100k hosts, parallel shards",
			Run: func(engine *sim.Engine, seed int64) Result { return RunCity(CityParams{Seed: seed, Engine: engine}) }},
	}
}()

// dropTrace is a cumulative-drop figure (Figures 4.3–4.5).
func dropTrace(id, spec, title string, p DropTraceParams) Experiment {
	d := p
	d.applyDefaults()
	return Experiment{
		ID: id, Title: title, Spec: spec,
		Desc: fmt.Sprintf("cumulative per-class drops: scheme=%s pool=%d alpha=%d handoffs=%d",
			d.Scheme, d.PoolSize, d.Alpha, d.Handoffs),
		Run: func(engine *sim.Engine, seed int64) Result {
			p := p
			p.Seed, p.Engine = seed, engine
			return RunDropTrace(p)
		},
	}
}

// delayTrace is an end-to-end-delay figure (Figures 4.7–4.10).
func delayTrace(id, spec, title string, p DelayTraceParams) Experiment {
	d := p
	d.applyDefaults()
	return Experiment{
		ID: id, Title: title, Spec: spec,
		Desc: fmt.Sprintf("per-packet delay around one handoff: scheme=%s pool=%d alpha=%d arlink=%v",
			d.Scheme, d.PoolSize, d.Alpha, d.ARLinkDelay),
		Run: func(engine *sim.Engine, seed int64) Result {
			p := p
			p.Seed, p.Engine = seed, engine
			return RunDelayTrace(p)
		},
	}
}

// tcpTrace is a link-layer handoff TCP figure (Figures 4.12/4.13).
func tcpTrace(id, spec, title string, buffered bool) Experiment {
	mode := "without buffering"
	if buffered {
		mode = "link-layer buffering enabled"
	}
	return Experiment{
		ID: id, Title: title, Spec: spec,
		Desc: "TCP sequence/stall across a link-layer handoff, " + mode,
		Run: func(engine *sim.Engine, seed int64) Result {
			return RunTCPTrace(TCPTraceParams{Buffered: buffered, Seed: seed, Engine: engine})
		},
	}
}

// classSuffix labels the three-flow scenarios' per-class metrics.
var classSuffix = [3]string{"rt", "hp", "be"}

// scratchSpec adapts an experiment's Run into a runner.ScratchSpec. A
// spec is a pure function of the seed — a replica's engine carries only
// capacity (free lists, queue storage) between runs, never results — so
// it is safe to fan out across the runner's worker pool. The pool hands
// each worker a private engine, reset between replicas; plain Run — used
// outside the pool — passes a nil engine, so the scenario builds a fresh
// one per replica. Both paths produce bit-for-bit identical metrics (see
// Engine.Reset).
type scratchSpec struct {
	name string
	// desc is surfaced by `experiments -list`.
	desc string
	run  func(engine *sim.Engine, seed int64) Result
}

func (s scratchSpec) Name() string { return s.name }

// Describe returns the spec's one-line scenario/parameter summary.
func (s scratchSpec) Describe() string { return s.desc }

func (s scratchSpec) Run(seed int64) (runner.Metrics, error) { return s.run(nil, seed).Metrics(), nil }

func (s scratchSpec) NewScratch() any { return sim.NewEngine() }

func (s scratchSpec) RunScratch(scratch any, seed int64) (runner.Metrics, error) {
	return s.run(scratch.(*sim.Engine), seed).Metrics(), nil
}

var _ runner.ScratchSpec = scratchSpec{}

// Specs returns every experiment available to the Monte-Carlo runner, in
// thesis order: the table's entries that name a spec, then the reduced
// city.
func Specs() []runner.Spec {
	var specs []runner.Spec
	for _, exp := range experiments {
		if exp.Spec != "" {
			specs = append(specs, scratchSpec{name: exp.Spec, desc: exp.Desc, run: exp.Run})
		}
	}
	return append(specs, CitySpec(CityParams{}))
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

// Fig414Result pairs the buffered and unbuffered throughput series.
type Fig414Result struct {
	Buffered   TCPTraceResult
	Unbuffered TCPTraceResult
}

// RunFig414 runs both Figure 4.14 curves (seed 0 selects the thesis
// default), optionally reusing a simulation engine (see Params.Engine).
func RunFig414(seed int64, engine *sim.Engine) Fig414Result {
	return Fig414Result{
		Buffered:   RunTCPTrace(TCPTraceParams{Buffered: true, Seed: seed, Engine: engine}),
		Unbuffered: RunTCPTrace(TCPTraceParams{Buffered: false, Seed: seed, Engine: engine}),
	}
}

// Render prints both curves side by side.
func (r Fig414Result) Render() string {
	return r.Buffered.RenderThroughput() + "\n" + r.Unbuffered.RenderThroughput()
}

// Metrics is nil: Figure 4.14 has no spec, since fig4.12 and fig4.13 run
// its two curves.
func (r Fig414Result) Metrics() runner.Metrics { return nil }
