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

// DelayTraceParams configures the end-to-end-delay experiments (Figures
// 4.7–4.10): one handoff while three 128 kb/s flows (160-byte packets
// every 10 ms) stream to the host; per-packet delay is plotted against the
// sequence number around the handoff.
type DelayTraceParams struct {
	// Scheme and sizing per figure:
	//   Fig 4.7:  SchemeFHOriginal, PoolSize 40
	//   Fig 4.8:  SchemeDual,       PoolSize 20
	//   Fig 4.9:  SchemeEnhanced,   PoolSize 20, ARLinkDelay 2 ms
	//   Fig 4.10: SchemeEnhanced,   PoolSize 20, ARLinkDelay 50 ms
	Scheme      core.Scheme
	PoolSize    int
	Alpha       int
	ARLinkDelay sim.Time
	// DrainInterval optionally paces the buffer release.
	DrainInterval sim.Time
	Seed          int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

func (p *DelayTraceParams) applyDefaults() {
	if p.Scheme == 0 {
		p.Scheme = core.SchemeFHOriginal
	}
	if p.PoolSize == 0 {
		p.PoolSize = 40
	}
	if p.ARLinkDelay == 0 {
		p.ARLinkDelay = 2 * sim.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// DelayTraceResult holds the delay-vs-sequence samples per flow, windowed
// around the handoff.
type DelayTraceResult struct {
	Params DelayTraceParams
	// Handoff is the recorded handoff.
	Handoff core.HandoffRecord
	// Samples[k] is flow k's delay series (F1 rt, F2 hp, F3 be), limited
	// to the window around the handoff.
	Samples [3][]stats.DelaySample
	// Lost[k] counts flow k's losses across the run.
	Lost [3]uint64
}

// RunDelayTrace executes one of the Figure 4.7–4.10 scenarios.
func RunDelayTrace(p DelayTraceParams) DelayTraceResult {
	p.applyDefaults()
	tb := NewTestbed(Params{
		Scheme:        p.Scheme,
		PoolSize:      p.PoolSize,
		Alpha:         p.Alpha,
		BufferRequest: p.PoolSize,
		ARLinkDelay:   p.ARLinkDelay,
		DrainInterval: p.DrainInterval,
		Seed:          p.Seed,
		Engine:        p.Engine,
	})
	spec := func(c inet.Class) FlowSpec {
		return FlowSpec{Class: c, Size: 160, Interval: 10 * sim.Millisecond}
	}
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		spec(inet.ClassRealTime),
		spec(inet.ClassHighPriority),
		spec(inet.ClassBestEffort),
	})
	for _, id := range unit.Flows {
		tb.Recorder.KeepSamples(id)
	}
	if err := tb.RunTraffic(12*sim.Second, 14*sim.Second); err != nil {
		panic(fmt.Sprintf("delay trace: %v", err))
	}

	res := DelayTraceResult{Params: p}
	recs := unit.MH.Handoffs()
	if len(recs) == 0 {
		panic("delay trace: no handoff occurred")
	}
	res.Handoff = recs[0]
	// Window: two seconds before detach until three seconds after attach.
	lo, hi := res.Handoff.Detached-2*sim.Second, res.Handoff.Attached+3*sim.Second
	for k, id := range unit.Flows {
		f := tb.Recorder.Flow(id)
		res.Lost[k] = f.Lost()
		res.Samples[k] = append(res.Samples[k], f.DelaysIn(lo, hi)...)
	}
	return res
}

// MaxDelay returns the largest delay observed for a flow within the
// window.
func (r DelayTraceResult) MaxDelay(k int) sim.Time {
	var m sim.Time
	for _, s := range r.Samples[k] {
		if s.Delay > m {
			m = s.Delay
		}
	}
	return m
}

// Metrics reports the per-class maximum delay within the window and loss.
func (r DelayTraceResult) Metrics() runner.Metrics {
	m := runner.Metrics{}
	for k, suffix := range classSuffix {
		m["max_delay_ms_"+suffix] = r.MaxDelay(k).Milliseconds()
		m["lost_"+suffix] = float64(r.Lost[k])
	}
	return m
}

// Render prints delay-vs-sequence rows for the affected packets (delay
// above twice the baseline), plus the per-flow maxima.
func (r DelayTraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "End-to-end delay around one handoff (%s, buffer=%d, AR link %v)\n\n",
		r.Params.Scheme, r.Params.PoolSize, r.Params.ARLinkDelay)
	fmt.Fprintf(&b, "%-8s%12s%12s%12s\n", "seq", "F1(rt)", "F2(hp)", "F3(be)")

	// Index samples by sequence for aligned rows.
	type row struct{ d [3]sim.Time }
	rows := make(map[uint32]*row)
	var minSeq, maxSeq uint32 = ^uint32(0), 0
	for k := range r.Samples {
		for _, s := range r.Samples[k] {
			if s.Delay < 30*sim.Millisecond {
				continue // baseline packets clutter the table
			}
			rw, ok := rows[s.Seq]
			if !ok {
				rw = &row{}
				rows[s.Seq] = rw
			}
			rw.d[k] = s.Delay
			if s.Seq < minSeq {
				minSeq = s.Seq
			}
			if s.Seq > maxSeq {
				maxSeq = s.Seq
			}
		}
	}
	for seq := minSeq; seq <= maxSeq && len(rows) > 0; seq++ {
		rw, ok := rows[seq]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-8d", seq)
		for k := 0; k < 3; k++ {
			if rw.d[k] == 0 {
				fmt.Fprintf(&b, "%12s", "-")
			} else {
				fmt.Fprintf(&b, "%11.0fms", rw.d[k].Milliseconds())
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nmax delay: F1=%.0fms F2=%.0fms F3=%.0fms   lost: F1=%d F2=%d F3=%d\n",
		r.MaxDelay(0).Milliseconds(), r.MaxDelay(1).Milliseconds(), r.MaxDelay(2).Milliseconds(),
		r.Lost[0], r.Lost[1], r.Lost[2])
	return b.String()
}
