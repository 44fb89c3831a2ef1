package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// pass is the outcome of one call of a workload's public entry point.
type pass struct {
	// build is the topology build inside the call, where the result
	// separates it (city-wave); run is the rest of the call.
	build, run time.Duration
	// ops counts the operations the call attempted: simulated handoffs,
	// or spec replicas in thesis-figures.
	ops int
	// counts holds exact per-layer counts read from the result structs.
	counts map[string]float64
	// specTime is the host time of each runner spec (thesis-figures).
	specTime map[string]time.Duration
	// output is the deterministic outcome the digest covers: what the
	// simulated network did, without the simulator's own work counters.
	output string
	// faults lists every output check the call failed.
	faults []string
}

func (p *pass) check(ok bool, format string, args ...any) {
	if !ok {
		p.faults = append(p.faults, fmt.Sprintf(format, args...))
	}
}

// size scales the workloads; fullSize is the benchmark of record and the
// self-test runs smaller ones.
type size struct {
	domains, hostsPerDomain int      // city-wave
	metroHosts              int      // metro-pool
	specs                   []string // thesis-figures
}

var fullSize = size{domains: 8, hostsPerDomain: 500, metroHosts: 2000, specs: figureSpecNames}

// workload is one named input of the benchmark.
type workload struct {
	name string
	run  func(seed int64) pass
	// setup times one set-up outside the simulation call; nil when the
	// call's own result separates its build (city-wave).
	setup func(seed int64) time.Duration
	// digests maps a seed to the reference digest of the output.
	digests map[string]string
}

var workloadNames = []string{"city-wave", "metro-pool", "thesis-figures"}

func newWorkload(name string, sz size) (workload, error) {
	switch name {
	case "city-wave":
		return workload{name: name, run: func(seed int64) pass { return cityWave(sz, seed) }}, nil
	case "metro-pool":
		return workload{name: name,
			run:   func(seed int64) pass { return metroPool(sz, seed) },
			setup: func(seed int64) time.Duration { return metroBuild(sz, seed) }}, nil
	case "thesis-figures":
		return workload{name: name,
			run:   func(seed int64) pass { return thesisFigures(sz, seed) },
			setup: func(int64) time.Duration { return figureRegistry(sz) }}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// guarded runs f and turns a panic into a fault of p: the scenario entry
// points panic on internal errors.
func guarded(p *pass, f func()) {
	defer func() {
		if v := recover(); v != nil {
			p.faults = append(p.faults, fmt.Sprintf("panic: %v", v))
		}
	}()
	f()
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cityWave runs the sharded city on one worker. RunCity times its own
// simulation (CityResult.Wall); the rest of the call is the build.
func cityWave(sz size, seed int64) (p pass) {
	hosts := sz.domains * sz.hostsPerDomain
	p.ops = hosts
	var res scenario.CityResult
	start := time.Now()
	guarded(&p, func() {
		res = scenario.RunCity(scenario.CityParams{
			Domains: sz.domains, HostsPerDomain: sz.hostsPerDomain,
			Shards: 8, Workers: 1, Seed: seed,
		})
	})
	total := time.Since(start)
	if len(p.faults) > 0 {
		return p
	}
	p.build, p.run = total-res.Wall, res.Wall
	p.output = cityOutcome(res)

	p.check(res.Handoffs == hosts, "handoffs %d, want %d", res.Handoffs, hosts)
	p.check(res.SessionsLeft == 0, "%d sessions left after the drain", res.SessionsLeft)
	c := map[string]float64{}
	for _, l := range res.Links {
		p.check(l.Sent == l.Delivered, "link %s: sent %d, delivered %d after the drain",
			l.Role, l.Sent, l.Delivered)
		c["netsim.link_sent."+l.Role] = float64(l.Sent)
		c["netsim.link_dropped."+l.Role] = float64(l.Dropped)
	}
	c["sim.events"] = float64(res.Events)
	b := res.Barrier
	c["shard.rounds"] = float64(b.Rounds)
	c["shard.barrier_rounds"] = float64(b.BarrierRounds)
	c["shard.solo_rounds"] = float64(b.SoloRounds)
	c["shard.elided_dispatch_frac"] = frac(b.ElidedDispatches, b.Dispatches+b.ElidedDispatches)
	c["shard.elided_flush_frac"] = frac(res.ElidedFlushes, res.Flushes)
	var max, sum uint64
	for _, n := range res.ShardEvents {
		sum += n
		if n > max {
			max = n
		}
	}
	c["shard.balance"] = frac(max*uint64(len(res.ShardEvents)), sum)
	c["wireless.air_sent"] = float64(res.AirDownSent + res.AirUpSent)
	c["wireless.air_drops"] = float64(res.AirDownDrops + res.AirUpDrops)
	c["buffer.grants"] = float64(res.Grants)
	c["buffer.refusal_frac"] = frac(res.Refusals, res.Grants+res.Refusals)
	c["core.handoffs"] = float64(res.Handoffs)
	c["core.sessions_left"] = float64(res.SessionsLeft)
	c["core.lost_packets"] = float64(res.Lost[0] + res.Lost[1] + res.Lost[2])
	c["core.max_delay_ms"] = res.MaxDelayMs
	c["mip.dup_frac"] = frac(res.DupPackets, res.TotalSent)
	p.counts = c
	return p
}

// metroVariants mirrors the three variants RunMetro sweeps: scheme and
// per-handoff buffer request at the default 12-packet demand.
var metroVariants = []struct {
	scheme  core.Scheme
	request int
}{
	{core.SchemeFHOriginal, 12},
	{core.SchemeDual, 6},
	{core.SchemeSafetyNet, 12},
}

// metroPool runs the nar, dual and sfn variants at one host count.
func metroPool(sz size, seed int64) (p pass) {
	hosts := sz.metroHosts
	p.ops = hosts * len(metroVariants)
	var res scenario.MetroResult
	start := time.Now()
	guarded(&p, func() {
		res = scenario.RunMetro(scenario.MetroParams{Hosts: []int{hosts}, Seed: seed})
	})
	p.run = time.Since(start)
	if len(p.faults) > 0 {
		return p
	}
	p.output = metroOutcome(res)

	p.check(len(res.Variants) == len(metroVariants), "%d metro variants, want %d",
		len(res.Variants), len(metroVariants))
	var events, grants, refusals, lost uint64
	var handoffs, left int
	var maxDelay, dupFrac float64
	for _, v := range res.Variants {
		cell := v.Cells[0]
		p.check(cell.Handoffs == hosts, "%s: handoffs %d, want %d", v.Slug, cell.Handoffs, hosts)
		p.check(cell.SessionsLeft == 0, "%s: %d sessions left after the drain", v.Slug, cell.SessionsLeft)
		events += cell.Events
		grants += cell.Grants
		refusals += cell.Refusals
		lost += cell.Lost[0] + cell.Lost[1] + cell.Lost[2]
		handoffs += cell.Handoffs
		left += cell.SessionsLeft
		if cell.MaxDelayMs > maxDelay {
			maxDelay = cell.MaxDelayMs
		}
		if v.Scheme == core.SchemeSafetyNet {
			dupFrac = cell.OverheadRatio()
		}
	}
	p.counts = map[string]float64{
		"sim.events":          float64(events),
		"buffer.grants":       float64(grants),
		"buffer.refusal_frac": frac(refusals, grants+refusals),
		"core.handoffs":       float64(handoffs),
		"core.sessions_left":  float64(left),
		"core.lost_packets":   float64(lost),
		"core.max_delay_ms":   maxDelay,
		"mip.dup_frac":        dupFrac,
	}
	return p
}

// metroTestbed builds the testbed RunMetro builds for one cell, with
// every host, flow and traffic timer in place, through the same public
// constructors. RunMetro does not expose its build, so this rebuilds it;
// the self-test runs the copy to the end and requires the same events,
// grants and refusals as RunMetro's cell. The stagger window (33 ms per host, at least
// 10 s) and the flow start and stop (4 s and 8 s after a host starts
// moving) are the metro scenario's.
func metroTestbed(scheme core.Scheme, request, hosts int, seed int64) *scenario.Testbed {
	window := sim.Time(hosts) * 33 * sim.Millisecond
	if min := 10 * sim.Second; window < min {
		window = min
	}
	tb := scenario.NewTestbed(scenario.Params{
		Scheme: scheme, PoolSize: 240, Alpha: 2, BufferRequest: request,
		Seed: seed, StatsMode: stats.ModeStreaming,
	})
	for i := 0; i < hosts; i++ {
		from := window * sim.Time(i) / sim.Time(hosts)
		unit := tb.AddMobileHost(
			wireless.Linear{Start: 50, Speed: scenario.MHSpeed, From: from},
			[]scenario.FlowSpec{scenario.AudioFlow(inet.Classes[i%3])},
		)
		src := unit.Sources[0]
		src.Start(from + 4*sim.Second)
		tb.Engine.Schedule(from+8*sim.Second, src.Stop)
	}
	return tb
}

// metroBuild times the builds RunMetro performs before each of its three
// cells runs.
func metroBuild(sz size, seed int64) time.Duration {
	start := time.Now()
	for _, v := range metroVariants {
		metroTestbed(v.scheme, v.request, sz.metroHosts, seed)
	}
	return time.Since(start)
}

// figureSpecNames are the thesis-figures specs: every runner spec except
// metro and city, which the other two workloads cover.
var figureSpecNames = []string{
	"fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "fig4.7", "fig4.8",
	"fig4.9", "fig4.10", "fig4.12", "fig4.13", "baseline", "latency",
	"loss-sweep", "drop-sfn", "delay-sfn",
}

// figureSpecs looks the named specs up in the registry.
func figureSpecs(names []string) ([]runner.Spec, error) {
	specs := make([]runner.Spec, len(names))
	for i, name := range names {
		s, err := scenario.SpecByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// thesisFigures runs one replica of each spec on a one-worker pool and
// renders the canonicalized runner document.
func thesisFigures(sz size, seed int64) (p pass) {
	p.ops = len(sz.specs)
	specs, err := figureSpecs(sz.specs)
	if err != nil {
		p.faults = append(p.faults, err.Error())
		return p
	}
	p.specTime = map[string]time.Duration{}
	pool := runner.NewPool(1)
	doc := runner.NewDocument("perfbench", seed, 1, pool.Workers())
	failed := 0
	for _, s := range specs {
		start := time.Now()
		res, err := pool.Run(context.Background(), s, 1, seed)
		elapsed := time.Since(start)
		p.run += elapsed
		p.specTime[s.Name()] = elapsed
		if err != nil {
			p.faults = append(p.faults, fmt.Sprintf("%s: %v", s.Name(), err))
			continue
		}
		failed += res.Failed()
		p.check(res.Failed() == 0, "%s: replica failed: %v", s.Name(), res.FirstErr())
		doc.Results = append(doc.Results, *res)
	}
	p.counts = map[string]float64{"runner.failed": float64(failed)}
	doc.Canonicalize()
	var b strings.Builder
	p.check(doc.Encode(&b) == nil, "encode runner document")
	p.output = b.String()
	return p
}

// figureRegistry times the set-up the replica runner of cmd/experiments
// performs before the first replica starts: a registry lookup of each
// spec, the pool, and the scratch engine Pool.Run takes for each spec.
func figureRegistry(sz size) time.Duration {
	start := time.Now()
	runner.NewPool(1)
	specs, _ := figureSpecs(sz.specs) // thesisFigures reports a missing spec
	for _, s := range specs {
		if ss, ok := s.(runner.ScratchSpec); ok {
			ss.NewScratch()
		}
	}
	return time.Since(start)
}

// The digest covers what the simulated network did: handoffs, buffer
// grants and refusals, losses, delays, sessions left, link and air
// counters. It leaves out the scheduler event counts and the shard
// barrier and exchange counters, which measure the simulator's own work:
// a performance change is meant to cut them, and they are reported as
// per-layer counts instead.

// cityOutcome encodes the outcome fields of a city result.
func cityOutcome(r scenario.CityResult) string {
	type row struct {
		Domain, Handoffs        int
		Grants, Refusals        uint64
		PeakNAR, PeakPAR        int
		Lost                    [3]uint64
		MaxDelayMs, MeanDelayMs float64
		SessionsLeft            int
	}
	out := struct {
		Rows                                               []row
		Links                                              []scenario.CityLinkUse
		AirDownSent, AirDownDrops, AirUpSent, AirUpDrops   uint64
		Handoffs                                           int
		Grants, Refusals                                   uint64
		Lost                                               [3]uint64
		MaxDelayMs, MeanDelayMs                            float64
		SessionsLeft                                       int
		DedupMH, DedupNAR, DupPackets, DupBytes, TotalSent uint64
	}{
		Links: r.Links, AirDownSent: r.AirDownSent, AirDownDrops: r.AirDownDrops,
		AirUpSent: r.AirUpSent, AirUpDrops: r.AirUpDrops,
		Handoffs: r.Handoffs, Grants: r.Grants, Refusals: r.Refusals, Lost: r.Lost,
		MaxDelayMs: ms(r.MaxDelayMs), MeanDelayMs: ms(r.MeanDelayMs), SessionsLeft: r.SessionsLeft,
		DedupMH: r.DedupMH, DedupNAR: r.DedupNAR, DupPackets: r.DupPackets,
		DupBytes: r.DupBytes, TotalSent: r.TotalSent,
	}
	for _, d := range r.Rows {
		out.Rows = append(out.Rows, row{d.Domain, d.Handoffs, d.Grants, d.Refusals,
			d.PeakNAR, d.PeakPAR, d.Lost, ms(d.MaxDelayMs), ms(d.MeanDelayMs), d.SessionsLeft})
	}
	return encode(out)
}

// metroOutcome encodes the outcome fields of every metro cell.
func metroOutcome(r scenario.MetroResult) string {
	type cell struct {
		Variant                                 string
		Hosts, Handoffs                         int
		Grants, Refusals                        uint64
		PeakNAR, PeakPAR                        int
		Lost                                    [3]uint64
		MaxDelayMs, MeanDelayMs                 float64
		SessionsLeft                            int
		DupPackets, DupBytes, DedupMH, DedupNAR uint64
		TotalSent                               uint64
	}
	var out []cell
	for _, v := range r.Variants {
		for _, c := range v.Cells {
			out = append(out, cell{v.Slug, c.Hosts, c.Handoffs, c.Grants, c.Refusals,
				c.PeakNAR, c.PeakPAR, c.Lost, ms(c.MaxDelayMs), ms(c.MeanDelayMs), c.SessionsLeft,
				c.DupPackets, c.DupBytes, c.DedupMH, c.DedupNAR, c.TotalSent})
		}
	}
	return encode(out)
}

// ms rounds a simulated delay to the nanosecond, so a change that only
// reorders a floating-point sum leaves the digest alone.
func ms(x float64) float64 { return math.Round(x*1e6) / 1e6 }

func encode(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return string(b)
}
