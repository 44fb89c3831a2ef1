package handover

import (
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// FlowReport summarizes one flow at the end of a run.
type FlowReport struct {
	// Host indexes the mobile host (order of AddMobileHost calls); Index
	// is the flow's position within that host's flow list.
	Host, Index int
	Class       Class
	Sent        uint64
	Delivered   uint64
	Lost        uint64
	// MaxDelay, MeanDelay, P99Delay and Jitter summarize end-to-end
	// latency of delivered packets.
	MaxDelay  time.Duration
	MeanDelay time.Duration
	P99Delay  time.Duration
	Jitter    time.Duration
}

// HandoffReport describes one completed handoff.
type HandoffReport struct {
	Host int
	// Triggered, Detached and Attached are virtual times of the L2 source
	// trigger and the blackout bounds.
	Triggered time.Duration
	Detached  time.Duration
	Attached  time.Duration
	// Anticipated is false when the fast-handover signalling could not
	// complete before the old link was lost.
	Anticipated bool
	// LinkLayerOnly marks a same-router access-point switch.
	LinkLayerOnly bool
	// NARGranted/PARGranted report the buffer negotiation outcome.
	NARGranted bool
	PARGranted bool
}

// Report aggregates a run's measurements.
type Report struct {
	Flows    []FlowReport
	Handoffs []HandoffReport
	// DropsByLocation counts recorded drops by site: "par-buffer",
	// "nar-buffer", "par-policy", "lifetime", "air", "link-queue",
	// "air-uplink".
	DropsByLocation map[string]uint64
}

// TotalLost sums losses across flows.
func (r Report) TotalLost() uint64 {
	var total uint64
	for _, f := range r.Flows {
		total += f.Lost
	}
	return total
}

// LostByClass sums losses per service class.
func (r Report) LostByClass() map[Class]uint64 {
	out := make(map[Class]uint64)
	for _, f := range r.Flows {
		out[f.Class.Effective()] += f.Lost
	}
	return out
}

// Report collects the current measurements.
func (s *Simulation) Report() Report {
	rep := Report{DropsByLocation: make(map[string]uint64)}
	for _, h := range s.hosts {
		for fi := range h.unit.Flows {
			if f, ok := h.FlowStats(fi); ok {
				rep.Flows = append(rep.Flows, f)
			}
		}
		rep.Handoffs = append(rep.Handoffs, h.Handoffs()...)
	}
	for site, n := range s.tb.Recorder.SiteDrops() {
		if n > 0 {
			rep.DropsByLocation[stats.DropSite(site).String()] = n
		}
	}
	return rep
}

// flowReport summarizes one flow's statistics.
func flowReport(host, index int, f *stats.FlowStats) FlowReport {
	return FlowReport{
		Host:      host,
		Index:     index,
		Class:     f.Class,
		Sent:      f.Sent,
		Delivered: f.Delivered,
		Lost:      f.Lost(),
		MaxDelay:  time.Duration(f.MaxDelay()),
		MeanDelay: time.Duration(f.MeanDelay()),
		P99Delay:  time.Duration(f.DelayPercentile(99)),
		Jitter:    time.Duration(f.Jitter()),
	}
}

// handoffReport describes one completed handoff of the given host.
func handoffReport(host int, rec core.HandoffRecord) HandoffReport {
	return HandoffReport{
		Host:          host,
		Triggered:     time.Duration(rec.Triggered),
		Detached:      time.Duration(rec.Detached),
		Attached:      time.Duration(rec.Attached),
		Anticipated:   rec.Anticipated,
		LinkLayerOnly: rec.LinkLayerOnly,
		NARGranted:    rec.NARGranted,
		PARGranted:    rec.PARGranted,
	}
}

// Handoffs returns this host's completed handoffs.
func (h *Host) Handoffs() []HandoffReport {
	var out []HandoffReport
	for _, rec := range h.unit.MH.Handoffs() {
		out = append(out, handoffReport(h.index, rec))
	}
	return out
}

// RequestLinkBuffering asks the host's current access router to buffer
// its packets without a handoff — the paper's §3.3 protection against a
// temporarily poor wireless link. Release with ReleaseLinkBuffering.
func (h *Host) RequestLinkBuffering() bool { return h.unit.MH.RequestLinkBuffering() }

// ReleaseLinkBuffering drains a RequestLinkBuffering session.
func (h *Host) ReleaseLinkBuffering() bool { return h.unit.MH.ReleaseLinkBuffering() }

// InitiateHandover asks the infrastructure to move the host to the other
// access router — the network-initiated handover mode of the fast-handover
// protocol (the paper's evaluation only uses host-initiated handovers).
// It works between the first two routers of the row only: a host on the
// previous router moves to the new one, and a host on the new router back.
// The host must have heard the target's beacons for the unsolicited
// advertisement to be accepted. bufferPackets is the buffer space the
// network reserves on the host's behalf.
func (s *Simulation) InitiateHandover(h *Host, bufferPackets int) bool {
	if h.unit.MH.LCoA().Net == scenario.NetPAR {
		return s.tb.PAR.InitiateHandover(h.unit.MH.LCoA(), "ap-nar", bufferPackets)
	}
	return s.tb.NAR.InitiateHandover(h.unit.MH.LCoA(), "ap-par", bufferPackets)
}

// FlowStats returns the report for one of this host's flows.
func (h *Host) FlowStats(index int) (FlowReport, bool) {
	if index < 0 || index >= len(h.unit.Flows) {
		return FlowReport{}, false
	}
	f := h.sim.tb.Recorder.Flow(h.unit.Flows[index])
	if f == nil {
		return FlowReport{}, false
	}
	return flowReport(h.index, index, f), true
}
