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

// DropTraceParams configures the cumulative-drop experiments (Figures
// 4.3–4.5): one mobile host bounces between the two access routers while
// three flows of different classes stream to it; cumulative per-flow
// losses are sampled after every handoff.
type DropTraceParams struct {
	// Scheme and buffer sizing distinguish the three figures:
	//   Fig 4.3: SchemeFHOriginal, PoolSize 40
	//   Fig 4.4: SchemeDual,      PoolSize 20 (classification disabled)
	//   Fig 4.5: SchemeEnhanced,  PoolSize 20 (classification enabled)
	Scheme   core.Scheme
	PoolSize int
	// Alpha is the PAR best-effort admission threshold (enhanced scheme).
	Alpha int
	// Handoffs is the number of handoffs to record (100 in the thesis).
	Handoffs int
	// Interval is the per-flow packet spacing. The thesis nominally uses
	// 64 kb/s flows (20 ms), whose blackout demand (≈30 packets) fits the
	// nominal buffers and never drops in this simulator; the default is
	// therefore 10 ms (128 kb/s), which recreates the thesis' per-handoff
	// buffer pressure. See EXPERIMENTS.md.
	Interval sim.Time
	Seed     int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

func (p *DropTraceParams) applyDefaults() {
	if p.Scheme == 0 {
		p.Scheme = core.SchemeFHOriginal
	}
	if p.PoolSize == 0 {
		p.PoolSize = 40
	}
	if p.Handoffs == 0 {
		p.Handoffs = 100
	}
	if p.Interval == 0 {
		p.Interval = 10 * sim.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// DropTraceResult holds cumulative per-class losses after each handoff.
type DropTraceResult struct {
	Params DropTraceParams
	// Cumulative[k][i] is flow k's (F1 real-time, F2 high-priority, F3
	// best-effort) cumulative loss after handoff i+1.
	Cumulative [3][]uint64
	// SafetyNet bandwidth-overhead accounting (zero for the buffering
	// schemes): anchor duplicates, total sends, and where the redundant
	// copies were suppressed.
	DupPackets uint64
	DupBytes   uint64
	DedupMH    uint64
	DedupNAR   uint64
	TotalSent  uint64
}

// RunDropTrace executes one of the Figure 4.3–4.5 scenarios.
func RunDropTrace(p DropTraceParams) DropTraceResult {
	p.applyDefaults()
	res := DropTraceResult{Params: p}

	bufReq := p.PoolSize // a single host may claim the whole pool
	tb := NewTestbed(Params{
		Scheme:        p.Scheme,
		PoolSize:      p.PoolSize,
		Alpha:         p.Alpha,
		BufferRequest: bufReq,
		Seed:          p.Seed,
		Engine:        p.Engine,
	})
	spec := func(c inet.Class) FlowSpec { return FlowSpec{Class: c, Size: 160, Interval: p.Interval} }
	unit := tb.AddMobileHost(wireless.PingPong{A: 20, B: 192, Speed: MHSpeed}, []FlowSpec{
		spec(inet.ClassRealTime),
		spec(inet.ClassHighPriority),
		spec(inet.ClassBestEffort),
	})

	done := 0
	unit.MH.OnHandoffDone = func(rec core.HandoffRecord) {
		if done >= p.Handoffs {
			return
		}
		done++
		// Sample once the release has drained (well before the next leg).
		tb.Engine.Schedule(2*sim.Second, func() {
			for k, id := range unit.Flows {
				res.Cumulative[k] = append(res.Cumulative[k], tb.Recorder.Flow(id).Lost())
			}
		})
		if done == p.Handoffs {
			// Enough handoffs: stop after the final sample lands.
			tb.Engine.Schedule(3*sim.Second, tb.Engine.Stop)
		}
	}

	tb.StartTraffic()
	// Each ping-pong leg takes 17.2 s; allow slack.
	horizon := sim.Time(p.Handoffs+3) * 18 * sim.Second
	if err := tb.Engine.Run(horizon); err != nil && err != sim.ErrStopped {
		panic(fmt.Sprintf("drop trace: %v", err))
	}
	res.DupPackets = tb.Recorder.DupPackets()
	res.DupBytes = tb.Recorder.DupBytes()
	res.DedupMH = tb.Recorder.DedupDiscardsMH()
	res.DedupNAR = tb.Recorder.DedupDiscardsNAR()
	res.TotalSent = tb.Recorder.TotalSent()
	return res
}

// Final returns each flow's loss count after the last recorded handoff.
func (r DropTraceResult) Final() [3]uint64 {
	var out [3]uint64
	for k := range r.Cumulative {
		if n := len(r.Cumulative[k]); n > 0 {
			out[k] = r.Cumulative[k][n-1]
		}
	}
	return out
}

// Handoffs returns how many handoffs were recorded.
func (r DropTraceResult) Handoffs() int { return len(r.Cumulative[0]) }

// Metrics reports the final per-class drop counts and, for SafetyNet, the
// bicast overhead.
func (r DropTraceResult) Metrics() runner.Metrics {
	final := r.Final()
	m := runner.Metrics{"handoffs": float64(r.Handoffs())}
	for k, suffix := range classSuffix {
		m["drops_"+suffix] = float64(final[k])
	}
	if r.Params.Scheme == core.SchemeSafetyNet {
		m["dup_packets"] = float64(r.DupPackets)
		ratio := 0.0
		if r.TotalSent > 0 {
			ratio = float64(r.DupPackets) / float64(r.TotalSent)
		}
		m["overhead_ratio"] = ratio
	}
	return m
}

// Render prints the cumulative-drop curves as a text table, decimated to
// every fifth handoff.
func (r DropTraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cumulative packet drops per flow vs handoffs (%s, buffer=%d)\n\n",
		r.Params.Scheme, r.Params.PoolSize)
	fmt.Fprintf(&b, "%-9s%10s%10s%10s\n", "handoffs", "F1(rt)", "F2(hp)", "F3(be)")
	n := r.Handoffs()
	for i := 0; i < n; i++ {
		if (i+1)%5 != 0 && i != 0 && i != n-1 {
			continue
		}
		fmt.Fprintf(&b, "%-9d%10d%10d%10d\n", i+1,
			r.Cumulative[0][i], r.Cumulative[1][i], r.Cumulative[2][i])
	}
	// The bandwidth-overhead footer only exists for SafetyNet, keeping the
	// Figure 4.3–4.5 renders byte-identical to the pre-SafetyNet output.
	if r.Params.Scheme == core.SchemeSafetyNet {
		ratio := 0.0
		if r.TotalSent > 0 {
			ratio = float64(r.DupPackets) / float64(r.TotalSent)
		}
		fmt.Fprintf(&b, "\nbicast overhead: %d duplicate packets (%d bytes wired, %.3f per packet sent); dedup %d at MH, %d at NAR\n",
			r.DupPackets, r.DupBytes, ratio, r.DedupMH, r.DedupNAR)
	}
	return b.String()
}
