package scenario

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// DefaultLossRates is the control-plane loss sweep's rate axis.
var DefaultLossRates = []float64{0, 0.02, 0.05, 0.10}

// LossSweepParams configures the control-plane loss-resilience sweep.
type LossSweepParams struct {
	// Rates are the per-packet control-loss probabilities to sweep. Nil
	// selects DefaultLossRates.
	Rates []float64
	// Handoffs is the number of ping-pong handoffs per cell. Zero selects 4.
	Handoffs int
	// Seed drives beacon phases and the per-interface fault streams.
	Seed int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

func (p *LossSweepParams) applyDefaults() {
	if p.Rates == nil {
		p.Rates = DefaultLossRates
	}
	if p.Handoffs <= 0 {
		p.Handoffs = 4
	}
}

// LossSweepRow is one (scheme, loss rate) cell's outcome.
type LossSweepRow struct {
	// Rate is the injected per-packet control-loss probability.
	Rate float64
	// Handoffs counts completed handoffs; Anticipated and Reactive split
	// them by path. Every initiated handoff completes one way or the other:
	// exhausted anticipation signaling degrades to the reactive
	// no-anticipation path instead of stalling.
	Handoffs    int
	Anticipated int
	Reactive    int
	// SignalingFailures sums the exchanges abandoned after retransmission
	// exhaustion across the host and both access routers.
	SignalingFailures uint64
	// Injected is how many control packets the fault injector discarded.
	Injected uint64
	// DataLost is the application flow's packet loss across the run.
	DataLost uint64
	// SessionsLeft counts handoff sessions still open at the end of the
	// run. The session-lifetime backstop reclaims every abandoned session,
	// so this is zero in a correct run.
	SessionsLeft int
}

// LossSweepScheme is one scheme's row series across the rate axis.
type LossSweepScheme struct {
	Name   string
	Slug   string
	Scheme core.Scheme
	Rows   []LossSweepRow
}

// LossSweepResult holds the full scheme × loss-rate grid.
type LossSweepResult struct {
	Params  LossSweepParams
	Schemes []LossSweepScheme
}

// RunLossSweep sweeps injected control-plane loss against the handover
// schemes: ping-pong handoffs under seeded per-link signaling loss, with
// the retransmission/backoff machinery and the reactive fallback keeping
// every handoff from stalling.
func RunLossSweep(p LossSweepParams) LossSweepResult {
	p.applyDefaults()
	res := LossSweepResult{Params: p}
	schemes := []LossSweepScheme{
		{Name: "enhanced buffer management", Slug: "enh", Scheme: core.SchemeEnhanced},
		{Name: "original fast handover", Slug: "fho", Scheme: core.SchemeFHOriginal},
		// SafetyNet leans on the same retransmission/backoff machinery, and
		// additionally must shrug off a lost bicast request or selective
		// report: either degrades to full NAR forwarding, never to loss.
		{Name: "safetynet bicast", Slug: "sfn", Scheme: core.SchemeSafetyNet},
	}
	for _, sch := range schemes {
		for _, rate := range p.Rates {
			params := Params{
				Scheme:          sch.Scheme,
				PoolSize:        40,
				Alpha:           2,
				BufferRequest:   20,
				ControlLossRate: rate,
				Seed:            p.Seed,
				Engine:          p.Engine,
			}
			sch.Rows = append(sch.Rows, runLossCell(params, p.Handoffs))
		}
		res.Schemes = append(res.Schemes, sch)
	}
	return res
}

// runLossCell runs one (scheme, rate) cell to completion and drains past
// the session-lifetime backstop so leaked sessions would be visible.
func runLossCell(p Params, handoffs int) LossSweepRow {
	tb := NewTestbed(p)
	unit := tb.AddMobileHost(wireless.PingPong{A: 20, B: 192, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	done := 0
	unit.MH.OnHandoffDone = func(rec core.HandoffRecord) {
		done++
		if done == handoffs {
			tb.Engine.Schedule(2*sim.Second, tb.Engine.Stop)
		}
	}
	tb.StartTraffic()
	horizon := sim.Time(handoffs+2) * 18 * sim.Second
	if err := tb.Engine.Run(horizon); err != nil && err != sim.ErrStopped {
		panic(fmt.Sprintf("loss sweep: %v", err))
	}
	tb.StopTraffic()
	// Past the longest backstop (the default session lifetime) every
	// session — including ones whose release signaling was lost — must be
	// gone.
	if err := tb.Engine.Run(tb.Engine.Now() + core.DefaultSessionLifetime + 2*sim.Second); err != nil {
		panic(fmt.Sprintf("loss sweep drain: %v", err))
	}

	row := LossSweepRow{Rate: p.ControlLossRate}
	for _, rec := range unit.MH.Handoffs() {
		row.Handoffs++
		if rec.Anticipated {
			row.Anticipated++
		} else {
			row.Reactive++
		}
	}
	row.SignalingFailures = unit.MH.SignalingFailures() +
		tb.PAR.SignalingFailures() + tb.NAR.SignalingFailures()
	if tb.Faults != nil {
		row.Injected = tb.Faults.Injected()
	}
	row.DataLost = tb.Recorder.Flow(unit.Flows[0]).Lost()
	row.SessionsLeft = tb.PAR.Sessions() + tb.NAR.Sessions()
	return row
}

// Render prints the grid.
func (r LossSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Handoff resilience under injected control-plane loss "+
		"(%d ping-pong handoffs per cell)\n", r.Params.Handoffs)
	for _, sch := range r.Schemes {
		fmt.Fprintf(&b, "\n%s\n", sch.Name)
		fmt.Fprintf(&b, "%8s%10s%13s%10s%9s%10s%10s%10s\n",
			"loss", "handoffs", "anticipated", "reactive", "sigfail",
			"injected", "datalost", "sessions")
		for _, row := range sch.Rows {
			fmt.Fprintf(&b, "%7.0f%%%10d%13d%10d%9d%10d%10d%10d\n",
				row.Rate*100, row.Handoffs, row.Anticipated, row.Reactive,
				row.SignalingFailures, row.Injected, row.DataLost, row.SessionsLeft)
		}
	}
	return b.String()
}

// WriteCSV emits the grid as rows of scheme,rate,counters.
func (r LossSweepResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"scheme,loss_rate,handoffs,anticipated,reactive,signaling_failures,injected,data_lost,sessions_left"); err != nil {
		return err
	}
	for _, sch := range r.Schemes {
		for _, row := range sch.Rows {
			_, err := fmt.Fprintf(w, "%s,%g,%d,%d,%d,%d,%d,%d,%d\n",
				sch.Slug, row.Rate, row.Handoffs, row.Anticipated, row.Reactive,
				row.SignalingFailures, row.Injected, row.DataLost, row.SessionsLeft)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Metrics reports each cell's counters as scalars (keys carry the scheme
// slug and the loss rate in percent, e.g. handoffs_enh_r5).
func (r LossSweepResult) Metrics() runner.Metrics {
	m := runner.Metrics{}
	for _, sch := range r.Schemes {
		for _, row := range sch.Rows {
			key := sch.Slug + "_r" + strconv.FormatFloat(row.Rate*100, 'g', -1, 64)
			m["handoffs_"+key] = float64(row.Handoffs)
			m["anticipated_"+key] = float64(row.Anticipated)
			m["signaling_failures_"+key] = float64(row.SignalingFailures)
			m["injected_"+key] = float64(row.Injected)
			m["data_lost_"+key] = float64(row.DataLost)
			m["sessions_left_"+key] = float64(row.SessionsLeft)
		}
	}
	return m
}
