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

// Fig46Params configures the data-rate sweep (Figure 4.6): one handoff
// under the enhanced scheme while the three flows' packet interval shrinks
// from 25 ms to 3 ms (51.2 → 426.7 kb/s per flow).
type Fig46Params struct {
	PoolSize int
	Alpha    int
	Seed     int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

func (p *Fig46Params) applyDefaults() {
	if p.PoolSize == 0 {
		p.PoolSize = 20
	}
	if p.Alpha == 0 {
		p.Alpha = 6
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Fig46Row is one sweep point.
type Fig46Row struct {
	Interval sim.Time
	RateKbps float64
	// Lost[k] is flow k's loss count (F1 rt, F2 hp, F3 be).
	Lost [3]uint64
}

// Fig46Result holds the sweep.
type Fig46Result struct {
	Params Fig46Params
	Rows   []Fig46Row
}

// Fig46Intervals reproduces the thesis' x axis: 160-byte packets every
// 25, 23, 21, …, 3 ms (51.2 … 426.7 kb/s).
func Fig46Intervals() []sim.Time {
	var out []sim.Time
	for ms := 25; ms >= 3; ms -= 2 {
		out = append(out, sim.Time(ms)*sim.Millisecond)
	}
	return out
}

// RunFig46 executes the sweep.
func RunFig46(p Fig46Params) Fig46Result {
	p.applyDefaults()
	res := Fig46Result{Params: p}
	for _, interval := range Fig46Intervals() {
		tb := NewTestbed(Params{
			Scheme:        core.SchemeEnhanced,
			PoolSize:      p.PoolSize,
			Alpha:         p.Alpha,
			BufferRequest: p.PoolSize,
			Seed:          p.Seed,
			Engine:        p.Engine,
		})
		spec := func(c inet.Class) FlowSpec { return FlowSpec{Class: c, Size: 160, Interval: interval} }
		unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
			spec(inet.ClassRealTime),
			spec(inet.ClassHighPriority),
			spec(inet.ClassBestEffort),
		})
		if err := tb.RunTraffic(12*sim.Second, 14*sim.Second); err != nil {
			panic(fmt.Sprintf("fig4.6: %v", err))
		}
		row := Fig46Row{
			Interval: interval,
			RateKbps: 160 * 8 / interval.Seconds() / 1000,
		}
		for k, id := range unit.Flows {
			row.Lost[k] = tb.Recorder.Flow(id).Lost()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Metrics reports the per-class losses at the highest rate.
func (r Fig46Result) Metrics() runner.Metrics {
	last := r.Rows[len(r.Rows)-1]
	m := runner.Metrics{}
	for k, suffix := range classSuffix {
		m["lost_"+suffix+"_at_max_rate"] = float64(last.Lost[k])
	}
	return m
}

// Render prints the sweep as a text table.
func (r Fig46Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4.6 — packet loss per flow vs data rate (enhanced, buffer=%d, α=%d)\n\n",
		r.Params.PoolSize, r.Params.Alpha)
	fmt.Fprintf(&b, "%-12s%10s%10s%10s\n", "rate(kb/s)", "F1(rt)", "F2(hp)", "F3(be)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12.1f%10d%10d%10d\n", row.RateKbps, row.Lost[0], row.Lost[1], row.Lost[2])
	}
	return b.String()
}
