package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// LatencyBreakdown decomposes the handover latency into its components
// across repeated handoffs — the analysis style of the thesis' reference
// [12] (Hsieh et al., "Performance analysis of Hierarchical Mobile IPv6
// with Fast-handoff"): anticipation signalling, the L2 blackout, and the
// release/registration tail, plus the resulting service interruption seen
// by a CBR flow.
type LatencyBreakdown struct {
	Handoffs     int
	Anticipation stats.Summary // Triggered → PrRtAdv received
	Blackout     stats.Summary // Detached → Attached
	Interruption stats.Summary // longest delivery gap around each handoff
}

// RunLatencyBreakdown measures the components over the given number of
// ping-pong handoffs under the enhanced scheme, optionally reusing a
// simulation engine (see Params.Engine).
func RunLatencyBreakdown(handoffs int, seed int64, engine *sim.Engine) LatencyBreakdown {
	if handoffs <= 0 {
		handoffs = 10
	}
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
		Seed:          seed,
		Engine:        engine,
	})
	unit := tb.AddMobileHost(wireless.PingPong{A: 20, B: 192, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.Recorder.KeepSamples(unit.Flows[0])
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
		panic(fmt.Sprintf("latency breakdown: %v", err))
	}

	var out LatencyBreakdown
	recs := unit.MH.Handoffs()
	if len(recs) > handoffs {
		recs = recs[:handoffs]
	}
	out.Handoffs = len(recs)
	for _, rec := range recs {
		if rec.Anticipated {
			out.Anticipation.Add((rec.Advertised - rec.Triggered).Milliseconds())
		}
		out.Blackout.Add((rec.Attached - rec.Detached).Milliseconds())
	}
	// Interruption: longest delivery gap within each handoff's window.
	f := tb.Recorder.Flow(unit.Flows[0])
	for _, rec := range recs {
		gap := f.DeliveryGap(rec.Triggered-sim.Second, rec.Attached+2*sim.Second)
		out.Interruption.Add(gap.Milliseconds())
	}
	return out
}

// Metrics reports the mean component latencies.
func (l LatencyBreakdown) Metrics() runner.Metrics {
	return runner.Metrics{
		"anticipation_ms": l.Anticipation.Mean(),
		"blackout_ms":     l.Blackout.Mean(),
		"interruption_ms": l.Interruption.Mean(),
	}
}

// Render formats the breakdown.
func (l LatencyBreakdown) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Handover latency breakdown over %d handoffs (enhanced scheme), ms\n\n", l.Handoffs)
	row := func(name string, s stats.Summary) {
		fmt.Fprintf(&b, "%-26s %8.1f ± %.1f  [%g, %g]\n",
			name, s.Mean(), s.StdDev(), s.Min(), s.Max())
	}
	row("anticipation signalling", l.Anticipation)
	row("L2 blackout", l.Blackout)
	row("service interruption", l.Interruption)
	return b.String()
}

// HysteresisCost runs one handoff walk under the given trigger hysteresis
// and returns the packet loss and whether the handoff was anticipated —
// the hysteresis-vs-overlap-budget trade-off in two numbers.
func HysteresisCost(hysteresisDB float64) (lost uint64, anticipated bool) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
		HysteresisDB:  hysteresisDB,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	if err := tb.RunTraffic(16*sim.Second, 18*sim.Second); err != nil {
		panic(fmt.Sprintf("hysteresis cost: %v", err))
	}
	recs := unit.MH.Handoffs()
	if len(recs) > 0 {
		anticipated = recs[0].Anticipated
	}
	return tb.Recorder.Flow(unit.Flows[0]).Lost(), anticipated
}

// TransferTime measures how long a bounded FTP download takes when it
// spans the link-layer handoff, with and without the §3.2.2.4 buffering.
// It returns the two completion times (zero when a transfer did not finish
// within the horizon).
func TransferTime(bytes uint64) (buffered, unbuffered sim.Time) {
	run := func(protect bool) sim.Time {
		tb := NewWLANTestbed(WLANParams{Buffered: protect, TransferBytes: bytes})
		if err := tb.Run(120 * sim.Second); err != nil {
			panic(fmt.Sprintf("transfer time: %v", err))
		}
		return tb.Sender.DoneAt()
	}
	return run(true), run(false)
}
