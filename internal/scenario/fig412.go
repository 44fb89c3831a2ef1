package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TCPTraceParams configures the link-layer handoff TCP experiments
// (Figures 4.12–4.14).
type TCPTraceParams struct {
	// Buffered toggles the §3.2.2.4 buffering (Figure 4.13 vs 4.12).
	Buffered bool
	Seed     int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

// TCPTraceResult holds the sequence and throughput traces of one run.
type TCPTraceResult struct {
	Params  TCPTraceParams
	Handoff core.HandoffRecord
	// Send/Ack are the sender-side traces, Recv the receiver-side one,
	// each windowed around the handoff.
	Send, Ack, Recv []stats.SeqSample
	// Goodput is the full-run receiver throughput series (100 ms buckets).
	Goodput []stats.Point
	// Timeouts is the sender's RTO count; Delivered the total in-order
	// bytes.
	Timeouts  uint64
	Delivered uint64
	// StallAfterDetach is the gap between link-down and the first segment
	// received afterwards.
	StallAfterDetach sim.Time
}

// RunTCPTrace executes one Figure 4.12/4.13 run and extracts the traces.
func RunTCPTrace(p TCPTraceParams) TCPTraceResult {
	tb := NewWLANTestbed(WLANParams{Buffered: p.Buffered, Seed: p.Seed, Engine: p.Engine})
	if err := tb.Run(20 * sim.Second); err != nil {
		panic(fmt.Sprintf("tcp trace: %v", err))
	}
	recs := tb.MH.Handoffs()
	if len(recs) == 0 {
		panic("tcp trace: no handoff occurred")
	}
	res := TCPTraceResult{
		Params:    p,
		Handoff:   recs[0],
		Goodput:   tb.Receiver.Goodput.Rate(),
		Timeouts:  tb.Sender.Timeouts(),
		Delivered: tb.Receiver.Delivered(),
	}
	lo := res.Handoff.Detached - 300*sim.Millisecond
	hi := res.Handoff.Attached + 2*sim.Second
	window := func(in []stats.SeqSample) []stats.SeqSample {
		var out []stats.SeqSample
		for _, s := range in {
			if s.At >= lo && s.At <= hi {
				out = append(out, s)
			}
		}
		return out
	}
	res.Send = window(tb.Sender.SendTrace.Samples())
	res.Ack = window(tb.Sender.AckTrace.Samples())
	res.Recv = window(tb.Receiver.RecvTrace.Samples())

	for _, s := range tb.Receiver.RecvTrace.Samples() {
		if s.At > res.Handoff.Detached {
			res.StallAfterDetach = s.At - res.Handoff.Detached
			break
		}
	}
	return res
}

// Metrics reports the sender's timeouts, the reception stall and the
// delivered bytes.
func (r TCPTraceResult) Metrics() runner.Metrics {
	return runner.Metrics{
		"tcp_timeouts":    float64(r.Timeouts),
		"stall_ms":        r.StallAfterDetach.Milliseconds(),
		"delivered_bytes": float64(r.Delivered),
	}
}

// Render prints the sequence trace (decimated) and the stall summary —
// the text form of Figures 4.12/4.13.
func (r TCPTraceResult) Render() string {
	var b strings.Builder
	label := "without buffering (Fig 4.12)"
	if r.Params.Buffered {
		label = "proposed method (Fig 4.13)"
	}
	fmt.Fprintf(&b, "TCP sequence trace during a link-layer handoff, %s\n", label)
	fmt.Fprintf(&b, "blackout %v → %v; reception stall after detach: %v; RTO timeouts: %d\n\n",
		r.Handoff.Detached, r.Handoff.Attached, r.StallAfterDetach, r.Timeouts)
	fmt.Fprintf(&b, "%-12s%14s%14s\n", "t(s)", "recv seq", "ack seq")
	step := len(r.Recv)/30 + 1
	for i := 0; i < len(r.Recv); i += step {
		s := r.Recv[i]
		fmt.Fprintf(&b, "%-12.3f%14d%14d\n", s.At.Seconds(), s.Seq, ackAtOrBefore(r.Ack, s.At))
	}
	return b.String()
}

// RenderThroughput prints the Figure 4.14 series for one run.
func (r TCPTraceResult) RenderThroughput() string {
	var b strings.Builder
	label := "no buffer"
	if r.Params.Buffered {
		label = "buffer"
	}
	fmt.Fprintf(&b, "TCP throughput (%s), Mb/s per 100 ms bucket\n\n", label)
	for _, pt := range r.Goodput {
		if pt.At < 10*sim.Second || pt.At > 15*sim.Second {
			continue
		}
		fmt.Fprintf(&b, "%-8.1f%8.2f\n", pt.At.Seconds(), pt.Value/1e6)
	}
	return b.String()
}

func ackAtOrBefore(acks []stats.SeqSample, at sim.Time) uint64 {
	var last uint64
	for _, a := range acks {
		if a.At > at {
			break
		}
		last = a.Seq
	}
	return last
}
