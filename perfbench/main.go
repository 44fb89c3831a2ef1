// Command perfbench is the simulator's benchmark of record. It runs one
// workload repeatedly through the simulator's public entry points on a
// single worker, checks every output, and prints one JSON result line:
// end-to-end metrics by default, per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload city-wave --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measured time per invocation")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a separate profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(*name, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &refs); err != nil {
		fmt.Fprintln(stderr, "perfbench: digests.json:", err)
		return 2
	}
	w.digests = refs[w.name]
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var rep report
	if *trace == 1 {
		res, rep, err = measureTraced(w, *seed, budget, stderr)
	} else {
		res, rep, err = measure(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Machine = machine()
	for _, line := range []any{rep, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return 0
}

// checkEnv refuses the environment switches that silently select the
// classic link and radio paths instead of the default fused ones.
func checkEnv() error {
	for _, v := range []string{"NETSIM_FUSED", "WIRELESS_FUSED"} {
		if val, ok := os.LookupEnv(v); ok {
			return fmt.Errorf("%s=%q is set; it selects a non-default transmit path, unset it to benchmark", v, val)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line: whether every check passed, the
// operations attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: the machine, the output digest,
// every per-pass sample and every failed check, so a noisy or failed
// number can be traced.
type report struct {
	Machine  map[string]string    `json:"machine"`
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Digest   string               `json:"digest"`
	Samples  map[string][]float64 `json:"samples"`
	Faults   []string             `json:"faults,omitempty"`
}

func machine() map[string]string {
	m := map[string]string{
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"go":         runtime.Version(),
		"cpu":        "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// digestsJSON holds the reference output digest of each full-size
// workload, by workload name and seed.
//
//go:embed digests.json
var digestsJSON []byte

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sample is one measured pass: the pass itself plus what the process
// spent around it.
type sample struct {
	pass
	wall, cpu time.Duration
	rssMB     float64 // peak resident set during the pass
	alloc     uint64  // bytes allocated
	mallocs   uint64
	gcs       uint32
	gcPause   time.Duration
}

// bench runs passes of one workload and checks each of them: its own
// output checks, the same digest and counts as the first pass, and the
// reference digest where one is stored for the seed.
type bench struct {
	w         workload
	seed      int64
	want      string // reference digest, "" if none
	digest    string // first pass's digest
	counts    map[string]float64
	attempted int
	failed    int
	faults    []string
}

func newBench(w workload, seed int64) *bench {
	return &bench{w: w, seed: seed, want: w.digests[strconv.FormatInt(seed, 10)]}
}

// do runs one pass after a full collection that also returns every free
// page to the kernel, so every pass starts from the same heap and its peak
// resident set is its own: nothing the harness or an earlier pass left
// behind is still resident. The collection is not timed. When prof is
// non-nil the call is wrapped in a CPU profile written to it.
func (b *bench) do(prof io.Writer) (sample, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return sample{}, err
		}
	}
	cpu0, start := cpuTime(), time.Now()
	p := b.w.run(b.seed)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)

	faults := p.faults
	d := digest(p.output)
	switch {
	case b.digest == "":
		b.digest, b.counts = d, p.counts
	case d != b.digest:
		faults = append(faults, "output digest differs from the first pass")
	case !maps.Equal(p.counts, b.counts):
		faults = append(faults, "per-layer counts differ from the first pass")
	}
	if b.want != "" && d != b.want {
		faults = append(faults, fmt.Sprintf("output digest %s, reference %s", d, b.want))
	}
	b.attempted += p.ops
	if len(faults) > 0 {
		b.failed += p.ops
		b.faults = append(b.faults, faults...)
	}
	return sample{
		pass: p, wall: wall, cpu: cpu, rssMB: peakRSSMB(),
		alloc: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs,
		gcs: after.NumGC - before.NumGC, gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, nil
}

// passes runs passes until their wall time adds up to budget and at least
// min have run. prof, when non-nil, gives each pass's profile writer;
// after, when non-nil, runs after each pass, outside its time.
func (b *bench) passes(budget time.Duration, min int, prof func() io.Writer, after func()) ([]sample, error) {
	var out []sample
	var spent time.Duration
	for len(out) < min || spent < budget {
		var w io.Writer
		if prof != nil {
			w = prof()
		}
		s, err := b.do(w)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		spent += s.wall
		if after != nil {
			after()
		}
	}
	return out, nil
}

func (b *bench) result(metrics map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

// setups times stand-alone set-ups of the workload for about d, each
// sample after a full collection. A sample repeats the set-up until it
// has taken 10 ms and reports the time of one.
func (b *bench) setups(d time.Duration) []float64 {
	var out []float64
	for spent := time.Duration(0); spent < d; {
		runtime.GC()
		var t time.Duration
		reps := 0
		for t < 10*time.Millisecond {
			t += b.w.setup(b.seed)
			reps++
		}
		out = append(out, t.Seconds()/float64(reps))
		spent += t
	}
	return out
}

// measure is the timed run: a checked warm-up pass, then passes until
// their wall time adds up to budget (at least three). Each pass is
// followed by the calibration kernel, 0.1 s of set-up samples for a
// workload whose set-up is not inside its call, and the kernel again, so
// all three sample the host at the same moments. It reports the medians, and the highest peak
// resident set of any pass. Times are scaled to the reference host's
// speed by the kernel (see calibrate.go); the report line keeps them as
// measured.
func measure(w workload, seed int64, budget time.Duration) (result, report, error) {
	b := newBench(w, seed)
	if _, err := b.do(nil); err != nil {
		return result{}, report{}, err
	}
	var setup, cal, calCPU []float64
	kernel := func() {
		wall, cpu := calibrate()
		cal, calCPU = append(cal, wall.Seconds()), append(calCPU, cpu.Seconds())
	}
	passes, err := b.passes(budget, 3, nil, func() {
		kernel()
		if w.setup != nil {
			setup = append(setup, b.setups(100*time.Millisecond)...)
		}
		kernel()
	})
	if err != nil {
		return result{}, report{}, err
	}
	runS := each(passes, func(s sample) float64 { return s.run.Seconds() })
	cpuS := each(passes, func(s sample) float64 { return s.cpu.Seconds() })
	rss := each(passes, func(s sample) float64 { return s.rssMB })
	if w.setup == nil {
		setup = each(passes, func(s sample) float64 { return s.build.Seconds() })
	}
	scale, scaleCPU := calRef.Seconds()/median(cal), calRef.Seconds()/median(calCPU)
	rep := report{Workload: w.name, Seed: seed, Digest: b.digest, Faults: b.faults,
		Samples: map[string][]float64{"run_s": runS, "cpu_s": cpuS, "setup_s": setup,
			"peak_rss_mb": rss, "cal_s": cal, "cal_cpu_s": calCPU}}
	return b.result(map[string]metric{
		"run_s":       {median(runS) * scale, "s"},
		"setup_s":     {median(setup) * scale, "s"},
		"cpu_s":       {median(cpuS) * scaleCPU, "s"},
		"peak_rss_mb": {slices.Max(rss), "MB"},
	}), rep, nil
}

// measureTraced is the separate traced run: a checked warm-up pass,
// untraced passes for half the budget, then passes under a CPU profile for
// the other half. Layer self times are per pass, attributed from the
// profile; counts come from the result structs.
func measureTraced(w workload, seed int64, budget time.Duration, stderr io.Writer) (result, report, error) {
	b := newBench(w, seed)
	if _, err := b.do(nil); err != nil {
		return result{}, report{}, err
	}
	plain, err := b.passes(budget/2, 2, nil, nil)
	if err != nil {
		return result{}, report{}, err
	}
	var profiles []*bytes.Buffer
	traced, err := b.passes(budget/2, 1, func() io.Writer {
		profiles = append(profiles, new(bytes.Buffer))
		return profiles[len(profiles)-1]
	}, nil)
	if err != nil {
		return result{}, report{}, err
	}
	byLayer := map[string]int64{}
	for _, p := range profiles {
		if err := attribute(p.Bytes(), byLayer); err != nil {
			return result{}, report{}, err
		}
	}

	m := map[string]metric{}
	for _, c := range perLayerCounts {
		m[c[0]] = metric{b.counts[c[0]], c[1]}
	}
	runS := median(each(plain, func(s sample) float64 { return s.run.Seconds() }))
	tracedS := median(each(traced, func(s sample) float64 { return s.run.Seconds() }))
	nsPerEvent := 0.0
	if ev := b.counts["sim.events"]; ev > 0 {
		nsPerEvent = runS / ev * 1e9
	}
	m["sim.ns_per_event"] = metric{nsPerEvent, "ns"}
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	n := float64(len(profiles))
	for _, layer := range layers {
		m[selfMetric(layer)] = metric{float64(byLayer[layer]) / n / 1e9, "s"}
	}
	m["profile.total_s"] = metric{float64(total) / n / 1e9, "s"}
	m["profile.run_s"] = metric{tracedS, "s"}
	m["profile.overhead_s"] = metric{tracedS - runS, "s"}
	m["gc.alloc_mb"] = metric{median(each(plain, func(s sample) float64 { return float64(s.alloc) / (1 << 20) })), "MB"}
	m["gc.mallocs"] = metric{median(each(plain, func(s sample) float64 { return float64(s.mallocs) })), "count"}
	m["gc.cycles"] = metric{median(each(plain, func(s sample) float64 { return float64(s.gcs) })), "count"}
	m["gc.pause_ms"] = metric{median(each(plain, func(s sample) float64 { return s.gcPause.Seconds() * 1e3 })), "ms"}
	for _, spec := range figureSpecNames {
		m["runner.spec_s."+spec] = metric{median(each(plain, func(s sample) float64 { return s.specTime[spec].Seconds() })), "s"}
	}

	printShares(stderr, byLayer, total)
	rep := report{Workload: w.name, Seed: seed, Digest: b.digest, Faults: b.faults,
		Samples: map[string][]float64{
			"run_s":        each(plain, func(s sample) float64 { return s.run.Seconds() }),
			"traced_run_s": each(traced, func(s sample) float64 { return s.run.Seconds() }),
		}}
	return b.result(m), rep, nil
}

// perLayerCounts are the exact counts read from the result structs, with
// their units; a workload that does not exercise a layer reports 0.
var perLayerCounts = func() [][2]string {
	out := [][2]string{
		{"sim.events", "count"},
		{"shard.rounds", "count"}, {"shard.barrier_rounds", "count"}, {"shard.solo_rounds", "count"},
		{"shard.elided_dispatch_frac", "ratio"}, {"shard.elided_flush_frac", "ratio"},
		{"shard.balance", "ratio"},
	}
	for _, role := range cityLinkRoles {
		out = append(out, [2]string{"netsim.link_sent." + role, "count"},
			[2]string{"netsim.link_dropped." + role, "count"})
	}
	return append(out, [][2]string{
		{"wireless.air_sent", "count"}, {"wireless.air_drops", "count"},
		{"buffer.grants", "count"}, {"buffer.refusal_frac", "ratio"},
		{"core.handoffs", "count"}, {"core.sessions_left", "count"},
		{"core.lost_packets", "count"}, {"core.max_delay_ms", "ms"}, {"mip.dup_frac", "ratio"},
		{"runner.failed", "count"},
	}...)
}()

// selfMetric names a layer's self-time metric; the GC's is its background
// mark time.
func selfMetric(layer string) string {
	if layer == "gc" {
		return "gc.bg_s"
	}
	return layer + ".self_s"
}

// cityLinkRoles are the wired link roles CityResult.Links reports.
var cityLinkRoles = []string{"cn-map", "par-map", "nar-map", "par-nar", "par-ap", "nar-ap"}

// printShares writes the traced run's layer shares to stderr.
func printShares(w io.Writer, byLayer map[string]int64, total int64) {
	if total == 0 {
		return
	}
	ls := slices.Clone(layers)
	sort.SliceStable(ls, func(i, j int) bool { return byLayer[ls[i]] > byLayer[ls[j]] })
	fmt.Fprint(w, "layer shares of profiled CPU:")
	for _, l := range ls {
		fmt.Fprintf(w, " %s %.1f%%", l, 100*float64(byLayer[l])/float64(total))
	}
	fmt.Fprintln(w)
}

func each(s []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) at
// the current resident set, so the next reading is the peak of one pass.
// Where the kernel refuses, readings stay the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
