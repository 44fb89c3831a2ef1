package scenario

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/runner"
)

func TestSpecsUniqueAndComplete(t *testing.T) {
	seen := make(map[string]bool)
	for _, spec := range Specs() {
		if spec.Name() == "" {
			t.Fatal("spec with empty name")
		}
		if seen[spec.Name()] {
			t.Fatalf("duplicate spec %q", spec.Name())
		}
		seen[spec.Name()] = true
	}
	for _, want := range []string{"fig4.2", "fig4.3", "fig4.7", "fig4.12", "baseline", "latency"} {
		if !seen[want] {
			t.Errorf("spec %q missing", want)
		}
	}
}

func TestSpecByName(t *testing.T) {
	spec, err := SpecByName("baseline")
	if err != nil || spec.Name() != "baseline" {
		t.Fatalf("SpecByName(baseline) = %v, %v", spec, err)
	}
	if _, err := SpecByName("fig9.9"); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestBaselineSpecDeterministic(t *testing.T) {
	spec, err := SpecByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Run(77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run(77)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
	if a["lost_enhanced"] >= a["lost_plain_mip"] {
		t.Errorf("enhanced scheme (%g lost) should beat plain Mobile IP (%g lost)",
			a["lost_enhanced"], a["lost_plain_mip"])
	}
}

// TestBaselineSpecUnderPool is the end-to-end determinism check the
// runner exists for: fanning the same root seed across different worker
// counts must yield identical aggregates.
func TestBaselineSpecUnderPool(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica scenario run is slow")
	}
	spec, err := SpecByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *runner.Result {
		res, err := runner.NewPool(workers).Run(context.Background(), spec, 3, 11)
		if err != nil {
			t.Fatalf("pool run (workers=%d): %v", workers, err)
		}
		if res.Failed() != 0 {
			t.Fatalf("workers=%d: %d replicas failed, first: %v", workers, res.Failed(), res.FirstErr())
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		parallel := run(workers)
		if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
			t.Fatalf("aggregates diverged between 1 and %d workers:\n%+v\nvs\n%+v",
				workers, serial.Metrics, parallel.Metrics)
		}
		for i := range serial.Replicas {
			if !reflect.DeepEqual(serial.Replicas[i].Metrics, parallel.Replicas[i].Metrics) {
				t.Fatalf("replica %d metrics diverged at %d workers", i, workers)
			}
		}
	}
}

// TestScratchSpecMatchesPlainRun pins the ScratchSpec contract: a
// worker's reused engine must reproduce bit-for-bit the metrics
// of a fresh per-replica engine, including when a seed repeats (which
// would expose state leaking through the scratch).
func TestScratchSpecMatchesPlainRun(t *testing.T) {
	spec, err := SpecByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := spec.(runner.ScratchSpec)
	if !ok {
		t.Fatal("baseline spec does not implement runner.ScratchSpec")
	}
	scratch := ss.NewScratch()
	for _, seed := range []int64{3, 99, 3} {
		plain, err := spec.Run(seed)
		if err != nil {
			t.Fatalf("plain run (seed %d): %v", seed, err)
		}
		got, err := ss.RunScratch(scratch, seed)
		if err != nil {
			t.Fatalf("scratch run (seed %d): %v", seed, err)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Fatalf("seed %d: scratch run diverged from plain run:\n%v\nvs\n%v", seed, plain, got)
		}
	}
}
