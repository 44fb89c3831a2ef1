package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// small is a scaled-down variant of every workload, seconds in total.
var small = size{domains: 2, hostsPerDomain: 50, metroHosts: 100,
	specs: []string{"fig4.7", "fig4.12", "baseline"}}

func smallBench(t *testing.T, name string, seed int64) *bench {
	t.Helper()
	w, err := newWorkload(name, small)
	if err != nil {
		t.Fatal(err)
	}
	return newBench(w, seed)
}

// Two passes of each workload agree on the digest and on every per-layer
// count, and a different seed changes the digest.
func TestWorkloadsRepeatAndFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := smallBench(t, name, 1)
			for i := 0; i < 2; i++ {
				if _, err := b.do(nil); err != nil {
					t.Fatal(err)
				}
			}
			if b.failed != 0 || b.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", b.attempted, b.failed, b.faults)
			}
			for k := range b.counts {
				if !slices.ContainsFunc(perLayerCounts, func(c [2]string) bool { return c[0] == k }) {
					t.Errorf("count %s is not a per-layer metric", k)
				}
			}
			other := smallBench(t, name, 2)
			if _, err := other.do(nil); err != nil {
				t.Fatal(err)
			}
			if other.failed != 0 {
				t.Fatalf("seed 2 failed: %v", other.faults)
			}
			if other.digest == b.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", b.digest)
			}
		})
	}
}

// A stored reference digest that does not match fails every operation of
// the pass.
func TestReferenceDigestMismatchFails(t *testing.T) {
	b := smallBench(t, "thesis-figures", 1)
	b.want = strings.Repeat("0", 64)
	if _, err := b.do(nil); err != nil {
		t.Fatal(err)
	}
	if b.failed != b.attempted || b.failed == 0 {
		t.Fatalf("attempted %d, failed %d; want every operation failed", b.attempted, b.failed)
	}
}

// The digest covers only what the simulated network did: a change to the
// event, barrier or exchange counters alone leaves it unchanged, and a
// change to an outcome field changes it.
func TestDigestLeavesOutDiagnostics(t *testing.T) {
	city := scenario.RunCity(scenario.CityParams{Domains: small.domains,
		HostsPerDomain: small.hostsPerDomain, Shards: 8, Workers: 1, Seed: 1})
	want := digest(cityOutcome(city))
	c := city
	c.Events++
	c.ShardEvents = slices.Clone(c.ShardEvents)
	c.ShardEvents[0]++
	c.Barrier.Rounds++
	c.Barrier.BarrierRounds++
	c.Barrier.SoloRounds++
	c.Barrier.Dispatches++
	c.Barrier.ElidedDispatches++
	c.Flushes++
	c.ElidedFlushes++
	c.CrossPorts++
	c.Workers++
	c.Wall++
	if got := digest(cityOutcome(c)); got != want {
		t.Errorf("city: diagnostics moved the digest")
	}
	c.AirUpSent++
	if digest(cityOutcome(c)) == want {
		t.Errorf("city: an outcome change left the digest unchanged")
	}

	metro := scenario.RunMetro(scenario.MetroParams{Hosts: []int{small.metroHosts}, Seed: 1})
	want = digest(metroOutcome(metro))
	for i := range metro.Variants {
		metro.Variants[i].Cells[0].Events++
	}
	if digest(metroOutcome(metro)) != want {
		t.Errorf("metro: event counts moved the digest")
	}
	metro.Variants[1].Cells[0].Refusals++
	if digest(metroOutcome(metro)) == want {
		t.Errorf("metro: an outcome change left the digest unchanged")
	}
}

// metroBuild times a copy of RunMetro's cell build. Run to the end the way
// RunMetro runs a cell, the copy must fire the same events and grant and
// refuse the same buffers, so it cannot drift from the program unnoticed.
// 400 hosts stagger past the 10 s minimum window, so the pools run out as
// they do at full size.
func TestMetroBuildMatchesRunMetro(t *testing.T) {
	const seed, hosts = 3, 400
	res := scenario.RunMetro(scenario.MetroParams{Hosts: []int{hosts}, Seed: seed})
	if res.Params.PoolSize != 240 || len(res.Variants) != len(metroVariants) {
		t.Fatalf("RunMetro pool %d, %d variants; the copy has pool 240, %d variants",
			res.Params.PoolSize, len(res.Variants), len(metroVariants))
	}
	window := sim.Time(hosts) * 33 * sim.Millisecond
	if window < 10*sim.Second {
		window = 10 * sim.Second
	}
	for i, v := range metroVariants {
		rv := res.Variants[i]
		if rv.Scheme != v.scheme || rv.Request != v.request {
			t.Errorf("variant %d: RunMetro runs %v with request %d, the copy %v with %d",
				i, rv.Scheme, rv.Request, v.scheme, v.request)
			continue
		}
		tb := metroTestbed(v.scheme, v.request, hosts, seed)
		if err := tb.Engine.Run(window + 12*sim.Second); err != nil {
			t.Fatal(err)
		}
		tb.StopTraffic()
		if err := tb.Engine.Run(tb.Engine.Now() + core.DefaultSessionLifetime + 2*sim.Second); err != nil {
			t.Fatal(err)
		}
		cell := rv.Cells[0]
		events := tb.Engine.Processed()
		grants := tb.PAR.PoolGrants() + tb.NAR.PoolGrants()
		refusals := tb.PAR.PoolRefusals() + tb.NAR.PoolRefusals()
		if events != cell.Events || grants != cell.Grants || refusals != cell.Refusals {
			t.Errorf("%s: copy fired %d events, granted %d, refused %d; RunMetro %d, %d, %d",
				rv.Slug, events, grants, refusals, cell.Events, cell.Grants, cell.Refusals)
		}
		t.Logf("%s: %d events, %d grants, %d refusals", rv.Slug, events, grants, refusals)
	}
}

// The traced run's layer self times, "other" included, add up to the
// profiled total, and every metric BENCHMARK.json names is reported.
func TestTracedRunCloses(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	w, err := newWorkload("city-wave", small)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	res, _, err := measureTraced(w, 1, time.Second, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run incorrect: %+v", res)
	}
	if got, want := keys(res.Metrics), names(spec.PerLayer); !slices.Equal(got, want) {
		t.Errorf("traced metrics %v\nBENCHMARK.json per_layer %v", got, want)
	}
	var sum float64
	for _, layer := range layers {
		sum += res.Metrics[selfMetric(layer)].Value
	}
	total := res.Metrics["profile.total_s"].Value
	if total <= 0 || math.Abs(sum-total) > 1e-9*total {
		t.Errorf("layer self times sum to %g s, profiled total %g s", sum, total)
	}

	res, _, err = measure(w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keys(res.Metrics), names(spec.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("timed metrics %v\nBENCHMARK.json end_to_end %v", got, want)
	}
}

// Every repro/internal module maps to a layer, so no module's time is
// silently filed under "other".
func TestLayerMapCoversModules(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := layerOfModule[e.Name()]; e.IsDir() && !ok {
			t.Errorf("module %s has no layer", e.Name())
		}
	}
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":                 "sim",
		"repro/internal/wireless.(*fifo[go.shape.int]).pop": "wireless",
		"repro/internal/scenario.(*city).addHost.func1":     "scenario",
		"repro/internal/mip.(*Agent).intercept":             "core",
		"runtime.mallocgc":                                  "",
	} {
		if got := layerOf(fn, "x.go"); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf("repro/internal/sim.(*ShardGroup).Run", "/src/internal/sim/shard.go"); got != "shard" {
		t.Errorf("ShardGroup frame in layer %q, want shard", got)
	}
}

// The classic-path switches are refused before anything runs.
func TestEnvGuard(t *testing.T) {
	for _, v := range []string{"NETSIM_FUSED", "WIRELESS_FUSED"} {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", "city-wave", "--seconds", "1"}, &stdout, &stderr)
			if code == 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), v) {
				t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
			}
		})
	}
}
