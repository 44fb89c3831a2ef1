package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, want := range []string{"4.2", "runner specs", "baseline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestListDescribesCitySpecFromFlags checks that -list describes the city
// spec the runner path would build: -shards reaches its description.
func TestListDescribesCitySpecFromFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{{nil, "on 4 shards"}, {[]string{"-shards", "2"}, "on 2 shards"}} {
		var out bytes.Buffer
		if err := run(append([]string{"-list"}, tc.args...), &out); err != nil {
			t.Fatalf("run -list %v: %v", tc.args, err)
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "city ") && strings.Contains(l, "shards") {
				line = l
			}
		}
		if !strings.Contains(line, tc.want) {
			t.Errorf("-list %v: city spec line %q, want %q", tc.args, line, tc.want)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	err := run([]string{"-fig", "9.9"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("err = %v, want unknown-figure error", err)
	}
}

func TestSingleFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "4.9", "-csv", dir}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4_9.csv"))
	if err != nil {
		t.Fatalf("csv missing: %v", err)
	}
	if !strings.HasPrefix(string(data), "seq,") {
		t.Fatalf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestUnknownSpec(t *testing.T) {
	err := run([]string{"-replicas", "1", "-spec", "fig9.9"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown spec") {
		t.Fatalf("err = %v, want unknown-spec error", err)
	}
}

// TestJSONArtifactDeterministicAcrossParallelism is the acceptance
// check: the same root seed and replica count must produce a
// byte-identical artifact (modulo timing fields) whether the replicas ran
// on one worker or eight.
func TestJSONArtifactDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica scenario runs are slow")
	}
	dir := t.TempDir()
	artifact := func(workers int, path string) []byte {
		args := []string{
			"-spec", "baseline", "-replicas", "3", "-seed", "42",
			"-parallel", strconv.Itoa(workers),
			"-json", path,
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run -parallel %d: %v", workers, err)
		}
		if !strings.Contains(out.String(), "baseline (n=3)") {
			t.Fatalf("-parallel %d text output missing aggregate:\n%s", workers, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc, err := runner.DecodeDocument(f)
		if err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		if doc.Schema != runner.SchemaVersion || doc.RootSeed != 42 || doc.Replicas != 3 {
			t.Fatalf("artifact header wrong: %+v", doc)
		}
		for _, rep := range doc.Results[0].Replicas {
			if rep.Seed != runner.ReplicaSeed(42, rep.Index) {
				t.Fatalf("replica %d has seed %d, want derived %d",
					rep.Index, rep.Seed, runner.ReplicaSeed(42, rep.Index))
			}
		}
		doc.Canonicalize()
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := artifact(1, filepath.Join(dir, "serial.json"))
	parallel := artifact(8, filepath.Join(dir, "parallel.json"))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("artifacts diverge across -parallel 1 vs 8:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestExplicitSpecImpliesOneReplica pins the `-spec NAME` shorthand: an
// explicit spec selection without -replicas runs one full replica through
// the runner instead of silently falling back to the figure path.
func TestExplicitSpecImpliesOneReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run is slow")
	}
	var out bytes.Buffer
	if err := run([]string{"-spec", "baseline"}, &out); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	if !strings.Contains(out.String(), "baseline (n=1)") {
		t.Fatalf("-spec alone did not run one replica:\n%s", out.String())
	}
}

func TestSeedsAliasUsesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run is slow")
	}
	var out bytes.Buffer
	if err := run([]string{"-seeds", "2", "-spec", "baseline"}, &out); err != nil {
		t.Fatalf("run -seeds: %v", err)
	}
	if !strings.Contains(out.String(), "baseline (n=2)") {
		t.Fatalf("-seeds output missing aggregate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "lost_enhanced") {
		t.Fatalf("-seeds output missing metric rows:\n%s", out.String())
	}
}

func TestWorkersAndEpochModeFlagsPreserveArtifacts(t *testing.T) {
	// -workers changes execution strategy only: the city spec's artifact
	// must be byte-identical (canonicalized) across worker counts.
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	dir := t.TempDir()
	artifact := func(path string, extra ...string) []byte {
		args := append([]string{"-spec", "city", "-replicas", "1", "-seed", "11", "-json", path}, extra...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc, err := runner.DecodeDocument(f)
		if err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		doc.Canonicalize()
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := artifact(filepath.Join(dir, "w2.json"), "-workers", "2")
	got := artifact(filepath.Join(dir, "w3.json"), "-workers", "3")
	if !bytes.Equal(ref, got) {
		t.Fatalf("artifacts diverge across -workers:\n%s\nvs\n%s", ref, got)
	}
}

func TestShardsFlagReachesCitySpec(t *testing.T) {
	// -shards must reach the city spec on the runner path: the spec runs on
	// the requested partition (its description names the shard count; the
	// default stays 4) and the replica's metrics equal a direct CitySpec
	// run on that shard count. The spec-scale city's metrics happen not to
	// depend on the partition, so only the description tells 2 from 4.
	for _, tc := range []struct {
		shards int
		want   string
	}{{0, "on 4 shards"}, {2, "on 2 shards"}} {
		specs, err := selectSpecs("baseline, city", scenario.CityParams{Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		if d := specs[1].(interface{ Describe() string }).Describe(); !strings.Contains(d, tc.want) {
			t.Errorf("-shards %d: city spec %q, want %q", tc.shards, d, tc.want)
		}
	}
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	path := filepath.Join(t.TempDir(), "s2.json")
	if err := run([]string{"-spec", "city", "-replicas", "1", "-shards", "2", "-json", path}, io.Discard); err != nil {
		t.Fatalf("run -shards 2: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := runner.DecodeDocument(f)
	if err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	rep := doc.Results[0].Replicas[0]
	want, err := scenario.CitySpec(scenario.CityParams{Shards: 2}).Run(rep.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Metrics) != fmt.Sprint(want) {
		t.Fatalf("-shards 2 metrics:\n%v\nwant CitySpec(Shards: 2):\n%v", rep.Metrics, want)
	}
}

func TestNegativeShardsAndWorkersRejected(t *testing.T) {
	for _, flag := range []string{"-shards", "-workers"} {
		err := run([]string{flag, "-1", "-fig", "4.9"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), flag+" must not be negative") {
			t.Errorf("%s -1: err = %v, want a must-not-be-negative error", flag, err)
		}
	}
}

// TestFiguresGolden runs every figure except the two scale runs (metro,
// city) one -fig at a time, in thesis order, and requires the output to
// match the published tables in experiments_output.txt byte for byte.
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for _, exp := range scenario.Experiments() {
		if exp.ID == "metro" || exp.ID == "city" {
			continue
		}
		if err := run([]string{"-fig", exp.ID}, &got); err != nil {
			t.Fatalf("-fig %s: %v", exp.ID, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("figures diverge from experiments_output.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestSeedFlagReachesFigures checks that an explicit -seed drives the -fig
// path: a seeded figure's table changes with the seed, and -seed 1 (the
// published seed) reproduces the default table.
func TestSeedFlagReachesFigures(t *testing.T) {
	render := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return out.String()
	}
	published := render("-fig", "baseline")
	if render("-fig", "baseline", "-seed", "5") == published {
		t.Fatal("-fig baseline -seed 5 printed the published table: the seed was dropped")
	}
	if got := render("-fig", "baseline", "-seed", "1"); got != published {
		t.Fatalf("-seed 1 differs from the published seed:\n%s\nwant:\n%s", got, published)
	}
}
