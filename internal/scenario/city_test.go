package scenario

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// cityTestParams is a reduced city that still exercises every moving part:
// multiple domains per shard, both region MAPs, co-located and cross-shard
// MAP links, and a full handoff per host.
func cityTestParams() CityParams {
	return CityParams{
		Domains:        4,
		HostsPerDomain: 25,
		MAPs:           2,
		StaggerWindow:  5 * sim.Second,
		Seed:           7,
	}
}

// cityBytes renders the deterministic output (summary + CSV) of a run.
func cityBytes(t *testing.T, res CityResult) string {
	t.Helper()
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return res.Render() + csv.String()
}

func TestCityOneShardIsSerialEngine(t *testing.T) {
	// The differential golden check: a 1-shard partition must be the
	// serial engine, byte for byte. Structurally (no mailbox ports exist,
	// so every link is a plain same-engine link) and observably (stepping
	// through the shard group produces the identical output to stepping
	// the engine directly).
	p := cityTestParams()
	p.Shards = 1
	p.Workers = 1
	viaGroup := RunCity(p)
	if viaGroup.CrossPorts != 0 {
		t.Fatalf("1-shard city registered %d mailbox ports, want 0 (must be the serial engine)", viaGroup.CrossPorts)
	}
	// No round loop: only the two Run calls' empty flushes are counted.
	if viaGroup.Barrier != (sim.ShardStats{}) || viaGroup.Flushes != 0 || viaGroup.ElidedFlushes != 2 {
		t.Fatalf("1-shard barrier counters %+v, flushes %d, elided %d; want zero, 0, 2",
			viaGroup.Barrier, viaGroup.Flushes, viaGroup.ElidedFlushes)
	}
	serial := p
	serial.forceSerial = true
	viaSerial := RunCity(serial)
	got, want := cityBytes(t, viaGroup), cityBytes(t, viaSerial)
	if got != want {
		t.Fatalf("1-shard group run diverged from the serial engine:\n--- group ---\n%s\n--- serial ---\n%s", got, want)
	}
}

func TestCityDeterministicAcrossWorkers(t *testing.T) {
	// For a fixed shard count the output must be byte-identical at any
	// worker count: shards are isolated within an epoch and the exchange
	// runs single-threaded in fixed port order, so shard-to-worker
	// assignment cannot leak into results.
	p := cityTestParams()
	p.Shards = 4
	run := func(workers int) string {
		q := p
		q.Workers = workers
		return cityBytes(t, RunCity(q))
	}
	ref := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != ref {
			t.Fatalf("city output diverged between 1 and %d workers:\n--- %d workers ---\n%s\n--- 1 worker ---\n%s",
				workers, workers, got, ref)
		}
	}
}

func TestCityRepeatableAcrossRuns(t *testing.T) {
	// Same parameters, fresh build: byte-identical, for every shard count
	// (each partition is deterministic; partitions differ from each other
	// only in same-instant tie-breaks).
	for _, shards := range []int{1, 3, 8} {
		p := cityTestParams()
		p.Shards = shards
		p.Workers = 4
		a := cityBytes(t, RunCity(p))
		b := cityBytes(t, RunCity(p))
		if a != b {
			t.Fatalf("shards=%d: two identical runs diverged:\n%s\n---\n%s", shards, a, b)
		}
	}
}

func TestCityCompletesEveryHandoff(t *testing.T) {
	p := cityTestParams()
	p.Shards = 3
	p.Workers = 4
	res := RunCity(p)
	want := p.Domains * p.HostsPerDomain
	if res.Handoffs != want {
		t.Fatalf("handoffs = %d, want %d (one per host)", res.Handoffs, want)
	}
	if res.SessionsLeft != 0 {
		t.Fatalf("%d handoff sessions leaked past the drain", res.SessionsLeft)
	}
	if res.TotalSent == 0 {
		t.Fatal("no traffic recorded")
	}
	lost := res.Lost[0] + res.Lost[1] + res.Lost[2]
	if lost*10 > res.TotalSent {
		t.Fatalf("lost %d of %d packets — the city should lose well under 10%%", lost, res.TotalSent)
	}
	// The enhanced scheme's whole point: real-time traffic fares no worse
	// than best-effort under buffer pressure.
	if res.Lost[0] > res.Lost[2] {
		t.Fatalf("real-time lost more than best-effort (%d > %d)", res.Lost[0], res.Lost[2])
	}
	if res.Events == 0 || res.CrossPorts == 0 {
		t.Fatalf("events=%d crossPorts=%d — sharded run should report both", res.Events, res.CrossPorts)
	}
}

func TestCityAssignDeterministicAndBalanced(t *testing.T) {
	mapShard, domShard := cityAssign(2, 50, 8)
	mapShard2, domShard2 := cityAssign(2, 50, 8)
	for i := range mapShard {
		if mapShard[i] != mapShard2[i] {
			t.Fatal("cityAssign is not deterministic")
		}
	}
	load := make([]int, 8)
	for i := range domShard {
		if domShard[i] != domShard2[i] {
			t.Fatal("cityAssign is not deterministic")
		}
		load[domShard[i]]++
	}
	min, max := load[0], load[0]
	for _, l := range load[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// 50 domains + 2 MAP units over 8 shards: greedy LPT keeps the spread
	// within one MAP-weight of even.
	if max-min > 13 {
		t.Fatalf("domain load spread %v too uneven", load)
	}
}

// benchCityParams is the CI speedup benchmark's workload: big enough that
// the barrier cost is amortized, small enough for -benchtime 1x on CI.
func benchCityParams(shards, workers int) CityParams {
	return CityParams{
		Domains:        8,
		HostsPerDomain: 150,
		MAPs:           2,
		Shards:         shards,
		Workers:        workers,
		StaggerWindow:  5 * sim.Second,
		Seed:           3,
	}
}

// BenchmarkCityShardedSpeedup measures the same city serial and sharded;
// the CI gate pins both, and their ratio is the parallel speedup.
func BenchmarkCityShardedSpeedup(b *testing.B) {
	for _, cfg := range []struct {
		name            string
		shards, workers int
	}{
		{"shards1", 1, 1},
		{"shards8", 8, 8},
		// Worker sweep at a fixed partition: how the barrier behaves when
		// goroutines are scarcer than shards (w1 also isolates protocol
		// cost from parallelism).
		{"shards8w1", 8, 1},
		{"shards8w2", 8, 2},
		{"shards8w4", 8, 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := RunCity(benchCityParams(cfg.shards, cfg.workers))
				if res.Handoffs == 0 {
					b.Fatal("no handoffs")
				}
			}
		})
	}
}

// stripBarrierLine removes the barrier-statistics line from a rendered city
// summary — the one line that legitimately differs between the adaptive and
// fixed epoch modes (it reports the protocol, not the simulation).
func stripBarrierLine(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "barrier: ") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// runCityFixedEpochs runs p like RunCity, but through the fixed-width
// epoch protocol, the reference the adaptive one must match.
func runCityFixedEpochs(t *testing.T, p CityParams) CityResult {
	t.Helper()
	p.applyDefaults()
	c := newCity(p)
	c.group.SetAdaptive(false)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	return c.result()
}

// citySparseParams is the sparse-handoff regime the adaptive barrier
// targets: one staggered handoff per domain spread over ten minutes, so
// beacons and rare cross-shard bursts dominate and fixed-width epochs
// degenerate into empty synchronized rounds.
func citySparseParams() CityParams {
	return CityParams{
		Domains:        4,
		HostsPerDomain: 1,
		MAPs:           2,
		Shards:         4,
		Workers:        2,
		StaggerWindow:  600 * sim.Second,
		Seed:           7,
	}
}

func TestCityAdaptiveMatchesFixedEpochs(t *testing.T) {
	// The differential golden for the adaptive barrier: on the same
	// parameters, the adaptive and fixed-width epoch protocols must produce
	// byte-identical simulations — everything except the barrier line.
	for _, tc := range []struct {
		name string
		p    CityParams
	}{
		{"dense", func() CityParams { p := cityTestParams(); p.Shards = 4; p.Workers = 4; return p }()},
		{"sparse", citySparseParams()},
		{"bench", benchCityParams(8, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adaptive := RunCity(tc.p)
			fixed := runCityFixedEpochs(t, tc.p)
			got, want := cityBytes(t, adaptive), cityBytes(t, fixed)
			if stripBarrierLine(got) != stripBarrierLine(want) {
				t.Fatalf("adaptive epochs diverged from fixed epochs:\n--- adaptive ---\n%s\n--- fixed ---\n%s", got, want)
			}
			if a, f := adaptive.Barrier, fixed.Barrier; a.BarrierRounds >= f.BarrierRounds || a.Dispatches >= f.Dispatches {
				t.Fatalf("adaptive barrier did not thin the protocol: adaptive %+v vs fixed %+v", a, f)
			}
		})
	}
}

// Event counts of the cityClassicRun configuration recorded on the
// two-event paths before they were deleted: classic links with analytic
// radios, and classic radios with analytic links. The analytic paths fire
// one event per hop, so the run must stay below both.
const (
	cityClassicLinkEvents = 166834
	cityClassicAirEvents  = 125100
)

// cityClassicRun is the ≥2-shard city run — co-located and cross-shard
// MAP links, every radio — that the classic-path goldens pin.
func cityClassicRun(t *testing.T) CityResult {
	t.Helper()
	p := cityTestParams()
	p.Shards = 4
	p.Workers = 2
	return RunCity(p)
}

// TestCityFusedMatchesClassicLinks pins the city run to the output
// recorded from the two-event link transmit path that the analytic path
// replaced: every per-domain row, every aggregate, the per-role link
// utilization and the event count (testdata/city_classic.golden; the
// count is the analytic path's, which fires one event per hop).
func TestCityFusedMatchesClassicLinks(t *testing.T) {
	r := cityClassicRun(t)
	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	type agg struct {
		Handoffs              int
		Grants, Refusals      uint64
		Lost                  [3]uint64
		MaxDelayMs, MeanDelay float64
		SessionsLeft          int
		DedupMH, DedupNAR     uint64
		DupPackets, TotalSent uint64
		CrossPorts            int
		Links                 []CityLinkUse
	}
	a := agg{r.Handoffs, r.Grants, r.Refusals, r.Lost, r.MaxDelayMs, r.MeanDelayMs,
		r.SessionsLeft, r.DedupMH, r.DedupNAR, r.DupPackets, r.TotalSent, r.CrossPorts, r.Links}
	// Per-direction conservation at the end of the run: every packet a
	// link role sent has been delivered.
	for _, u := range r.Links {
		if u.Sent != u.Delivered {
			t.Errorf("%s links sent %d, delivered %d", u.Role, u.Sent, u.Delivered)
		}
	}
	got := fmt.Sprintf("%s%+v\nevents %d\n", csv.String(), a, r.Events)
	want, err := os.ReadFile("testdata/city_classic.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("city run diverges from the recorded output:\n--- got ---\n%s--- recorded ---\n%s", got, want)
	}
	if r.Events >= cityClassicLinkEvents {
		t.Fatalf("run fired %d events, classic links %d: the analytic link path did not reduce the event count", r.Events, cityClassicLinkEvents)
	}
}

// TestCityFusedAirMatchesClassic pins the four air-plane counters of the
// city run to those recorded from the two-event radio transmit path, and
// its event count below that path's.
func TestCityFusedAirMatchesClassic(t *testing.T) {
	r := cityClassicRun(t)
	got := [4]uint64{r.AirDownSent, r.AirDownDrops, r.AirUpSent, r.AirUpDrops}
	if want := [4]uint64{20334, 100, 500, 0}; got != want {
		t.Fatalf("air counters (down sent, down drops, up sent, up drops) = %v, recorded %v", got, want)
	}
	if r.Events >= cityClassicAirEvents {
		t.Fatalf("run fired %d events, classic radio %d: the analytic radio path did not reduce the event count", r.Events, cityClassicAirEvents)
	}
}

func TestCityAdaptiveReducesBarrierRounds(t *testing.T) {
	// The acceptance bar: ≥5× fewer synchronized rounds in the sparse
	// regime. The counts are pure functions of the model, so the exact
	// ratio is stable (measured ~10× on this config).
	p := citySparseParams()
	adaptive := RunCity(p)
	fixed := runCityFixedEpochs(t, p)
	if fixed.Barrier.BarrierRounds < 5*adaptive.Barrier.BarrierRounds {
		t.Fatalf("synchronized rounds reduced only %d→%d, want ≥5×",
			fixed.Barrier.BarrierRounds, adaptive.Barrier.BarrierRounds)
	}
	if adaptive.Barrier.SoloRounds == 0 || adaptive.Barrier.ElidedDispatches == 0 {
		t.Fatalf("adaptive stats %+v: expected solo rounds and elided dispatches", adaptive.Barrier)
	}
	if adaptive.ElidedFlushes == 0 {
		t.Fatalf("no flush was elided (flushes=%d)", adaptive.Flushes)
	}
	if fixed.Barrier.SoloRounds != 0 || fixed.Barrier.ElidedDispatches != 0 {
		t.Fatalf("fixed stats %+v: fixed mode must dispatch every shard every round", fixed.Barrier)
	}
}

func TestSpecsIdenticalAcrossEpochModes(t *testing.T) {
	// Runner metrics from the city spec must not depend on the epoch
	// mode: the fixed protocol is the reference for the adaptive one.
	cityP := CityParams{Domains: 4, HostsPerDomain: 25, MAPs: 2, Shards: 4, StaggerWindow: 5 * sim.Second}
	a, err := CitySpec(cityP).Run(9)
	if err != nil {
		t.Fatal(err)
	}
	cityP.Seed = 9
	b := runCityFixedEpochs(t, cityP).Metrics()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("city spec metrics diverged across epoch modes:\n%v\nvs\n%v", a, b)
	}
}

func TestCityWorkersDefaulting(t *testing.T) {
	// Both defaulting paths (applyDefaults and CitySpec) resolve through
	// cityWorkers: explicit > fallback, clamped to the shard count.
	if got := cityWorkers(3, 8, 5); got != 3 {
		t.Fatalf("explicit request = %d, want 3", got)
	}
	if got := cityWorkers(0, 8, 5); got != 5 {
		t.Fatalf("fallback = %d, want 5", got)
	}
	if got := cityWorkers(0, 2, 5); got != 2 {
		t.Fatalf("shard clamp = %d, want 2", got)
	}
	if got := cityWorkers(0, 8, 0); got != 1 {
		t.Fatalf("floor = %d, want 1", got)
	}
	p := CityParams{Shards: 4, Workers: 16}
	p.applyDefaults()
	if p.Workers != 4 {
		t.Fatalf("applyDefaults workers = %d, want clamp to 4 shards", p.Workers)
	}
	var d CityParams
	d.applyDefaults()
	if want := min(runtime.GOMAXPROCS(0), defaultCityShards); d.Shards != defaultCityShards || d.Workers != want {
		t.Fatalf("zero params: shards/workers = %d/%d, want %d/%d", d.Shards, d.Workers, defaultCityShards, want)
	}
}

func TestCityShardPoolsStayBalanced(t *testing.T) {
	// Every shard owns one packet pool, and a tunnel wrapper taken at an
	// anchor dies in a domain on another shard. The exchange rebalances
	// the pools at every barrier, so the anchors' shards reuse the
	// wrappers their domains recycle instead of allocating afresh while
	// the domains' free lists grow. Before the rebalance about half of all
	// Gets were heap allocations on this config.
	var out []uint64
	var ref []inet.PoolStats
	for _, workers := range []int{1, 2} {
		p := cityTestParams()
		p.Workers = workers
		res := RunCity(p)
		if len(res.Pools) != res.Shards {
			t.Fatalf("workers=%d: %d pools for %d shards", workers, len(res.Pools), res.Shards)
		}
		var gets, fresh, puts uint64
		var free int
		for _, s := range res.Pools {
			gets, fresh, puts, free = gets+s.Gets, fresh+s.Fresh, puts+s.Puts, free+s.Len
		}
		if gets == 0 {
			t.Fatalf("workers=%d: the shard pools handed out no packets", workers)
		}
		if fresh > gets/10 {
			t.Errorf("workers=%d: %d of %d Gets were fresh allocations, want at most a tenth",
				workers, fresh, gets)
		}
		if uint64(free) > gets/20 {
			t.Errorf("workers=%d: %d packets idle in the free lists after %d Gets, want at most a twentieth",
				workers, free, gets)
		}
		out = append(out, gets-puts)
		if ref == nil {
			ref = res.Pools
		} else if !slices.Equal(res.Pools, ref) {
			t.Errorf("pool counters differ between 1 and %d workers:\n%v\nvs\n%v", workers, res.Pools, ref)
		}
	}
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("packets never reclaimed after the drain: %d at 1 worker, %d at 2, want 0", out[0], out[1])
	}
}

// rowNames lists a testbed row's node names and its hosts' stations and
// RCoAs, in build order.
func rowNames(tb *Testbed) string {
	names := []string{tb.CN.Name()}
	for i, ar := range tb.ARs {
		names = append(names, ar.Router().Name(), tb.APs[i].Name())
	}
	for _, u := range tb.MHs {
		names = append(names, u.Station.Name()+"@"+u.RCoA.String())
	}
	return strings.Join(names, " ")
}

// TestRowNamesPinned pins the names and addresses the row builder gives
// the testbed and each city domain. Names travel on the wire (RtSolPr and
// FBU carry the target AP's), but only the NAR's AP is ever a target in
// the PAR→NAR wave, so the goldens alone miss a renamed PAR AP.
func TestRowNamesPinned(t *testing.T) {
	tb := NewTestbed(Params{Routers: 3})
	addHostWave(tb, 2, sim.Second)
	if got, want := rowNames(tb), "cn par ap-par nar ap-nar ar2 ap-ar2 mh0@50:1000 mh1@50:1001"; got != want {
		t.Errorf("testbed names %q, want %q", got, want)
	}
	p := CityParams{Domains: 3, HostsPerDomain: 2, MAPs: 2, Shards: 2}
	p.applyDefaults()
	c := newCity(p)
	for d, want := range []string{
		"cn0 par0 ap0-par nar0 ap0-nar mh0-0@50:1001 mh0-1@50:1002",
		"cn1 par1 ap1-par nar1 ap1-nar mh1-0@50:1003 mh1-1@50:1004",
		"cn2 par2 ap2-par nar2 ap2-nar mh2-0@51:1005 mh2-1@51:1006",
	} {
		if got := rowNames(c.domains[d].tb); got != want {
			t.Errorf("domain %d names %q, want %q", d, got, want)
		}
	}
}
