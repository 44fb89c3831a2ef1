package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// BaselineRow is one mobility-management configuration's handoff cost.
type BaselineRow struct {
	Name string
	// Lost is the packet loss across one handoff.
	Lost uint64
	// Outage is the longest delivery gap around the handoff.
	Outage sim.Time
}

// BaselineResult compares the mobility ladder the thesis' Chapter 2
// motivates: plain Mobile IP with a distant home agent, plain Mobile IP
// anchored at a local MAP (Hierarchical Mobile IPv6), fast handover
// without buffering, and the full enhanced scheme.
type BaselineResult struct {
	Rows []BaselineRow
}

// RunBaseline executes the ladder with one 64 kb/s flow per run under the
// given beacon-phase seed (0 selects the default), optionally reusing a
// simulation engine across the four configurations (see Params.Engine).
func RunBaseline(seed int64, engine *sim.Engine) BaselineResult {
	configs := []struct {
		name   string
		params Params
	}{
		{"plain Mobile IP, home agent 50 ms away", Params{
			Scheme:         core.SchemeFHNoBuffer,
			Mobility:       core.MobilityPlainMIP,
			HomeAgentDelay: 50 * sim.Millisecond,
		}},
		{"plain Mobile IP, anchored at the MAP (HMIPv6)", Params{
			Scheme:   core.SchemeFHNoBuffer,
			Mobility: core.MobilityPlainMIP,
		}},
		{"fast handover, no buffering", Params{
			Scheme: core.SchemeFHNoBuffer,
		}},
		{"fast handover + enhanced buffer management", Params{
			Scheme:        core.SchemeEnhanced,
			PoolSize:      40,
			Alpha:         2,
			BufferRequest: 20,
		}},
	}
	var res BaselineResult
	for _, cfg := range configs {
		cfg.params.Seed = seed
		cfg.params.Engine = engine
		res.Rows = append(res.Rows, runBaselineOnce(cfg.name, cfg.params))
	}
	return res
}

func runBaselineOnce(name string, p Params) BaselineRow {
	tb := NewTestbed(p)
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.Recorder.KeepSamples(unit.Flows[0])
	if err := tb.RunTraffic(12*sim.Second, 14*sim.Second); err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}
	f := tb.Recorder.Flow(unit.Flows[0])
	row := BaselineRow{Name: name, Lost: f.Lost()}
	// The outage is the longest gap between consecutive deliveries.
	row.Outage = f.DeliveryGap(0, sim.MaxTime)
	return row
}

// Metrics reports each rung's loss and outage.
func (r BaselineResult) Metrics() runner.Metrics {
	slugs := [4]string{"plain_mip", "hmip", "fh_nobuf", "enhanced"}
	if len(r.Rows) != len(slugs) {
		panic(fmt.Sprintf("baseline spec: %d rows, want %d", len(r.Rows), len(slugs)))
	}
	m := runner.Metrics{}
	for i, row := range r.Rows {
		m["lost_"+slugs[i]] = float64(row.Lost)
		m["outage_ms_"+slugs[i]] = row.Outage.Milliseconds()
	}
	return m
}

// Render prints the ladder.
func (r BaselineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Handoff cost across the mobility-management ladder (one 64 kb/s flow)\n\n")
	fmt.Fprintf(&b, "%-50s%8s%12s\n", "configuration", "lost", "outage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-50s%8d%11.0fms\n", row.Name, row.Lost, row.Outage.Milliseconds())
	}
	return b.String()
}
