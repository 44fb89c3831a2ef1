package scenario

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

func parseCSV(t *testing.T, cw CSVWriter) [][]string {
	t.Helper()
	var b strings.Builder
	if err := cw.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return records
}

func TestFig42CSV(t *testing.T) {
	res := RunFig42(Fig42Params{MaxHosts: 3})
	records := parseCSV(t, res)
	if len(records) != 4 { // header + 3 hosts
		t.Fatalf("records = %d, want 4", len(records))
	}
	if records[0][0] != "hosts" || len(records[0]) != 5 {
		t.Fatalf("header = %v", records[0])
	}
	if records[1][0] != "1" || records[3][0] != "3" {
		t.Fatalf("host column wrong: %v", records)
	}
}

func TestDropTraceCSV(t *testing.T) {
	res := RunDropTrace(DropTraceParams{
		Scheme: core.SchemeEnhanced, PoolSize: 20, Alpha: 6, Handoffs: 3,
	})
	records := parseCSV(t, res)
	if len(records) != res.Handoffs()+1 {
		t.Fatalf("records = %d, want %d", len(records), res.Handoffs()+1)
	}
	if records[0][1] != "f1_realtime" {
		t.Fatalf("header = %v", records[0])
	}
}

func TestFig46CSV(t *testing.T) {
	res := RunFig46(Fig46Params{})
	records := parseCSV(t, res)
	if len(records) != len(res.Rows)+1 {
		t.Fatalf("records = %d, want %d", len(records), len(res.Rows)+1)
	}
	if records[1][0] != "51.2" {
		t.Fatalf("first rate = %v", records[1])
	}
}

func TestDelayTraceCSV(t *testing.T) {
	res := RunDelayTrace(DelayTraceParams{Scheme: core.SchemeDual, PoolSize: 20})
	records := parseCSV(t, res)
	if len(records) < 10 {
		t.Fatalf("records = %d, want a window of samples", len(records))
	}
	// Sequence column strictly increasing.
	prev := ""
	for _, rec := range records[1:] {
		if prev != "" && len(rec[0]) < len(prev) || (len(rec[0]) == len(prev) && rec[0] <= prev) {
			t.Fatalf("seq order broken: %s after %s", rec[0], prev)
		}
		prev = rec[0]
	}
}

func TestTCPTraceCSV(t *testing.T) {
	res := RunTCPTrace(TCPTraceParams{Buffered: true})
	records := parseCSV(t, res)
	if len(records) < 50 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0][0] != "t_s" || records[0][1] != "recv_seq" {
		t.Fatalf("header = %v", records[0])
	}
}

func TestFig414CSV(t *testing.T) {
	res := RunFig414(0, nil)
	records := parseCSV(t, res)
	if len(records) < 100 {
		t.Fatalf("records = %d", len(records))
	}
	if len(records[0]) != 3 {
		t.Fatalf("header = %v", records[0])
	}
}

func TestBaselineCSV(t *testing.T) {
	res := RunBaseline(0, nil)
	records := parseCSV(t, res)
	if len(records) != 5 { // header + 4 rungs
		t.Fatalf("records = %d, want 5", len(records))
	}
}

// Renderers: every result type prints a non-empty, labelled table.
func TestRenderers(t *testing.T) {
	checks := []struct {
		name     string
		render   func() string
		contains string
	}{
		{"fig4.2", func() string { return RunFig42(Fig42Params{MaxHosts: 2}).Render() }, "Figure 4.2"},
		{"drop trace", func() string {
			return RunDropTrace(DropTraceParams{Scheme: core.SchemeDual, PoolSize: 20, Handoffs: 2}).Render()
		}, "Cumulative packet drops"},
		{"fig4.6", func() string { return RunFig46(Fig46Params{}).Render() }, "Figure 4.6"},
		{"delay trace", func() string {
			return RunDelayTrace(DelayTraceParams{Scheme: core.SchemeDual, PoolSize: 20}).Render()
		}, "End-to-end delay"},
		{"tcp trace", func() string { return RunTCPTrace(TCPTraceParams{Buffered: true}).Render() }, "TCP sequence trace"},
		{"fig4.14", func() string { return RunFig414(0, nil).Render() }, "TCP throughput"},
		{"baseline", func() string { return RunBaseline(0, nil).Render() }, "mobility-management ladder"},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			out := c.render()
			if len(out) < 40 || !strings.Contains(out, c.contains) {
				t.Fatalf("Render output suspicious (%d bytes): %q...", len(out), out[:min(len(out), 120)])
			}
		})
	}
}

func TestSweeps(t *testing.T) {
	pool := runner.NewPool(2)
	fig42Spec := scratchSpec{name: "fig4.2", run: func(engine *sim.Engine, seed int64) Result {
		return RunFig42(Fig42Params{MaxHosts: 10, Seed: seed, Engine: engine})
	}}
	fig42, err := pool.Run(context.Background(), fig42Spec, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fig42.Failed() != 0 {
		t.Fatalf("fig4.2 replicas failed: %v", fig42.FirstErr())
	}
	byName := make(map[string]runner.MetricSummary)
	for _, m := range fig42.Metrics {
		if m.N != 3 {
			t.Errorf("%s: n = %d, want 3", m.Name, m.N)
		}
		byName[m.Name] = m
	}
	// The structural claims hold at every seed: DUAL ≈ 2× NAR.
	nar, dual := byName["capacity_nar"], byName["capacity_dual"]
	if dual.Mean < 1.8*nar.Mean {
		t.Errorf("dual mean %.1f < 1.8× nar mean %.1f", dual.Mean, nar.Mean)
	}

	baseline, err := SpecByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := pool.Run(context.Background(), baseline, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ladder.Failed() != 0 {
		t.Fatalf("ladder replicas failed: %v", ladder.FirstErr())
	}
	// Enhanced rung loses nothing at any seed.
	for _, m := range ladder.Metrics {
		if m.Name == "lost_enhanced" && m.Max != 0 {
			t.Errorf("enhanced rung lost up to %g packets across seeds", m.Max)
		}
	}
}

func TestLatencyBreakdown(t *testing.T) {
	l := RunLatencyBreakdown(6, 1, nil)
	if l.Handoffs != 6 {
		t.Fatalf("handoffs = %d, want 6", l.Handoffs)
	}
	// The blackout is configured at exactly 200 ms.
	if l.Blackout.Mean() != 200 || l.Blackout.StdDev() != 0 {
		t.Errorf("blackout = %.1f ± %.1f ms, want exactly 200", l.Blackout.Mean(), l.Blackout.StdDev())
	}
	// Anticipation is a handful of milliseconds of wired signalling.
	if l.Anticipation.Mean() <= 0 || l.Anticipation.Mean() > 50 {
		t.Errorf("anticipation = %.1f ms; implausible", l.Anticipation.Mean())
	}
	// The interruption is dominated by the blackout (buffered packets
	// arrive right after), never an RTO-class stall.
	if l.Interruption.Mean() < 180 || l.Interruption.Max() > 400 {
		t.Errorf("interruption = %.1f ms (max %g); out of the blackout class",
			l.Interruption.Mean(), l.Interruption.Max())
	}
	if !strings.Contains(l.Render(), "latency breakdown") {
		t.Error("Render header missing")
	}
}

func TestTransferTime(t *testing.T) {
	buffered, unbuffered := TransferTime(20_000_000)
	if buffered == 0 || unbuffered == 0 {
		t.Fatalf("transfer incomplete: buffered=%v unbuffered=%v", buffered, unbuffered)
	}
	gap := unbuffered - buffered
	// The unbuffered run pays the ~1.35 s timeout stall plus slow-start
	// recovery.
	if gap < sim.Second || gap > 4*sim.Second {
		t.Errorf("stall cost = %v, want 1–4 s", gap)
	}
}
