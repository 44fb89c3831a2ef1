package handover

import (
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// WLANConfig parameterizes the single-router WLAN scenario (the paper's
// Figure 4.11): one access router with two access points and an FTP/TCP
// transfer from the wired correspondent node to a mobile host that walks
// from one cell to the other.
type WLANConfig struct {
	// Buffered selects the paper's §3.2.2.4 link-layer handoff buffering;
	// false reproduces the plain handoff with its TCP timeout stall.
	Buffered bool
	// RouterBufferPackets is the router's buffer pool (default 200).
	RouterBufferPackets int
	// L2HandoffDelay is the blackout (default 200 ms).
	L2HandoffDelay time.Duration
	// MSS is the TCP segment payload size (default 1460).
	MSS int
	// NewReno enables partial-ACK recovery (default: classic Reno, as the
	// paper simulated).
	NewReno bool
	// Seed drives the deterministic beacon phases.
	Seed int64
}

// TCPSimulation is one assembled WLAN run.
type TCPSimulation struct {
	tb *scenario.WLANTestbed
}

// NewWLAN assembles the single-router WLAN scenario.
func NewWLAN(cfg WLANConfig) *TCPSimulation {
	return &TCPSimulation{tb: scenario.NewWLANTestbed(scenario.WLANParams{
		Buffered:       cfg.Buffered,
		PoolSize:       cfg.RouterBufferPackets,
		L2HandoffDelay: sim.Duration(cfg.L2HandoffDelay),
		MSS:            cfg.MSS,
		NewReno:        cfg.NewReno,
		Seed:           cfg.Seed,
	})}
}

// Run starts the bulk transfer and advances the simulation by d.
func (s *TCPSimulation) Run(d time.Duration) error {
	return s.tb.Run(s.tb.Engine.Now() + sim.Duration(d))
}

// TCPReport summarizes the transfer.
type TCPReport struct {
	// DeliveredBytes is the in-order goodput.
	DeliveredBytes uint64
	// Timeouts counts sender RTO firings (zero with buffering, per the
	// paper).
	Timeouts uint64
	// FastRetransmits counts dup-ACK recoveries.
	FastRetransmits uint64
	// Handoffs lists the host's handoffs.
	Handoffs []HandoffReport
}

// Report collects the current state.
func (s *TCPSimulation) Report() TCPReport {
	rep := TCPReport{
		DeliveredBytes:  s.tb.Receiver.Delivered(),
		Timeouts:        s.tb.Sender.Timeouts(),
		FastRetransmits: s.tb.Sender.FastRetransmits(),
	}
	for _, rec := range s.tb.MH.Handoffs() {
		rep.Handoffs = append(rep.Handoffs, handoffReport(0, rec))
	}
	return rep
}

// Throughput returns the receiver's goodput series: (time, bits/s) pairs
// in 100 ms buckets — the paper's Figure 4.14 curve.
func (s *TCPSimulation) Throughput() []ThroughputPoint {
	var out []ThroughputPoint
	for _, p := range s.tb.Receiver.Goodput.Rate() {
		out = append(out, ThroughputPoint{
			At:            time.Duration(p.At),
			BitsPerSecond: p.Value,
		})
	}
	return out
}

// ThroughputPoint is one bucket of the goodput series.
type ThroughputPoint struct {
	At            time.Duration
	BitsPerSecond float64
}
