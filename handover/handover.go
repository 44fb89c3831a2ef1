// Package handover is the public API of the fast-handover buffer-management
// library. It reproduces the system of "An Enhanced Buffer Management
// Scheme for Fast Handover Protocol" (Yao, 2003/2004): Mobile IPv6 fast
// handovers between two access routers with negotiated, class-aware
// buffering at both the previous and the new access router, plus buffering
// support for pure link-layer (same-router) handoffs.
//
// A Simulation assembles the paper's reference network — a correspondent
// node, a Hierarchical Mobile IPv6 mobility anchor point, two access
// routers (or a longer row, Config.Routers) with one 802.11-style access
// point each — and lets the caller place mobile hosts with deterministic
// motion and constant-bit-rate flows on it:
//
//	sim := handover.New(handover.Config{
//		Scheme:               handover.Enhanced,
//		RouterBufferPackets:  40,
//		BufferRequestPackets: 20,
//	})
//	host := sim.AddMobileHost(handover.LinearPath(50, 10),
//		handover.AudioFlow(handover.RealTime),
//		handover.AudioFlow(handover.HighPriority))
//	sim.Run(12 * time.Second)
//	report := sim.Report()
//
// Everything is a deterministic discrete-event simulation: same Config and
// seed, same results.
package handover

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wireless"
)

// Scheme selects the buffering behaviour during handoffs.
type Scheme = core.Scheme

// The available schemes, from the paper's evaluation.
const (
	// NoBuffer is plain fast handover: redirected packets are transmitted
	// into the link-layer blackout and lost.
	NoBuffer = core.SchemeFHNoBuffer
	// OriginalFH is the original fast-handover buffering: everything at
	// the new access router.
	OriginalFH = core.SchemeFHOriginal
	// PAROnly buffers everything at the previous access router.
	PAROnly = core.SchemePAROnly
	// Dual is the paper's scheme with classification disabled: both
	// routers' buffers, one class.
	Dual = core.SchemeDual
	// Enhanced is the paper's full scheme: dual buffering with per-class
	// operations (Table 3.3).
	Enhanced = core.SchemeEnhanced
	// SafetyNet is the bicast competitor from the related SafetyNet work:
	// no router buffering — the anchor duplicates toward both access
	// routers during handoff and the host's selective report tells the
	// new router which gap to forward.
	SafetyNet = core.SchemeSafetyNet
)

// Class is the class-of-service field of Table 3.1.
type Class = inet.Class

// The service classes.
const (
	// Unspecified is treated as best effort.
	Unspecified = inet.ClassUnspecified
	// RealTime packets are worthless when late; they are buffered at the
	// new access router and never pay the inter-router transfer delay.
	RealTime = inet.ClassRealTime
	// HighPriority packets are protected from loss: buffered at the new
	// router with overflow to the previous one.
	HighPriority = inet.ClassHighPriority
	// BestEffort packets are buffered at the previous router while space
	// remains above the α threshold, and sacrificed first.
	BestEffort = inet.ClassBestEffort
)

// Config parameterizes the reference network. Zero values select the
// paper's settings.
type Config struct {
	// Routers is the number of access routers in the row (default 2, the
	// paper's previous and new router; at most 48). They sit 212 m apart
	// with one access point each, all under the one mobility anchor
	// point, so a host walking the row hands off at every boundary.
	Routers int
	// Scheme is the buffering scheme on every access router (default
	// Enhanced).
	Scheme Scheme
	// RouterBufferPackets is each access router's handover buffer pool
	// (the paper uses 20–50).
	RouterBufferPackets int
	// Alpha is the best-effort admission threshold at the previous access
	// router.
	Alpha int
	// BufferRequestPackets is the per-handoff buffer space each mobile
	// host requests from each router. Zero disables buffering requests.
	BufferRequestPackets int
	// ARLinkDelay is the delay of the direct link between neighbouring
	// routers (default 2 ms; the paper also evaluates 50 ms).
	ARLinkDelay time.Duration
	// L2HandoffDelay is the link-layer blackout (default 200 ms; measured
	// 60–400 ms in the paper's references).
	L2HandoffDelay time.Duration
	// RAInterval is the router-advertisement beacon period.
	RAInterval time.Duration
	// PartialGrants lets routers grant whatever buffer space remains
	// instead of refusing requests they cannot cover in full (the paper's
	// "more precise buffer allocation" future-work item).
	PartialGrants bool
	// AuthKey, when non-empty, turns on HMAC authentication of all
	// handover signalling (the paper's security future-work item): both
	// routers and every host share the key, and unauthenticated handovers
	// are refused.
	AuthKey []byte
	// PlainMobileIP replaces fast handover with the classic Mobile IP
	// baseline: movement detection by advertisements, an immediate link
	// switch, registration afterwards — no anticipation, no buffering.
	PlainMobileIP bool
	// HomeAgentDelay, when positive, anchors hosts at a home agent this
	// far (one-way) behind the MAP instead of at the MAP itself.
	HomeAgentDelay time.Duration
	// HysteresisDB is the signal-strength margin a new access point must
	// beat the current one by before a handover triggers (anti-flapping;
	// spends the coverage-overlap budget).
	HysteresisDB float64
	// ControlLossRate, when positive, drops each handover-signalling packet
	// on the access links with this probability (seeded, per-interface
	// streams) and enables the retransmission paths for unacknowledged
	// messages. Data packets are never injected with loss.
	ControlLossRate float64
	// Seed drives the deterministic beacon phases and fault streams.
	Seed int64
}

// Flow describes one constant-bit-rate stream from the correspondent node
// to a mobile host.
type Flow struct {
	// Class is the service class stamped on every packet.
	Class Class
	// PacketBytes is the packet size (160 in the paper).
	PacketBytes int
	// Interval is the inter-packet spacing (20 ms in the paper: 64 kb/s).
	Interval time.Duration
}

// AudioFlow returns the paper's canonical 64 kb/s audio flow with the
// given class.
func AudioFlow(class Class) Flow {
	return Flow{Class: class, PacketBytes: 160, Interval: 20 * time.Millisecond}
}

// Motion is a deterministic trajectory along the one-dimensional track the
// access points sit on (previous AP at 0 m, new AP at 212 m, any further
// ones every 212 m after).
type Motion = wireless.Motion

// Stationary keeps the host at a fixed position.
func Stationary(pos float64) Motion { return wireless.Fixed(pos) }

// LinearPath moves from start at speed m/s (negative moves backward).
func LinearPath(start, speed float64) Motion {
	return wireless.Linear{Start: start, Speed: speed}
}

// PingPongPath bounces between a and b at speed m/s, starting at a.
func PingPongPath(a, b, speed float64) Motion {
	return wireless.PingPong{A: a, B: b, Speed: speed}
}

// Simulation is one assembled run of the reference network.
type Simulation struct {
	tb       *scenario.Testbed
	hosts    []*Host
	traceLog *trace.Log
}

// Validate reports the first setting New cannot build: a negative buffer
// pool or α, an α that would refuse every best-effort packet, a loss rate
// outside [0,1], a negative delay or beacon period, an unknown scheme, or
// a row that is not 2 to 48 routers long.
func (c Config) Validate() error {
	if err := c.params().Validate(); err != nil {
		return fmt.Errorf("handover: %w", err)
	}
	return nil
}

// params maps the config onto the testbed New builds.
func (c Config) params() scenario.Params {
	mobility := core.MobilityFastHandover
	if c.PlainMobileIP {
		mobility = core.MobilityPlainMIP
	}
	return scenario.Params{
		Routers:         c.Routers,
		Scheme:          c.Scheme,
		PoolSize:        c.RouterBufferPackets,
		Alpha:           c.Alpha,
		BufferRequest:   c.BufferRequestPackets,
		ARLinkDelay:     sim.Duration(c.ARLinkDelay),
		L2HandoffDelay:  sim.Duration(c.L2HandoffDelay),
		RAInterval:      sim.Duration(c.RAInterval),
		PartialGrants:   c.PartialGrants,
		AuthKey:         c.AuthKey,
		Mobility:        mobility,
		HomeAgentDelay:  sim.Duration(c.HomeAgentDelay),
		HysteresisDB:    c.HysteresisDB,
		ControlLossRate: c.ControlLossRate,
		Seed:            c.Seed,
	}
}

// New assembles the reference network. It panics with Validate's error on
// a config it cannot build.
func New(cfg Config) *Simulation {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Simulation{tb: scenario.NewTestbed(cfg.params())}
}

// Host is one mobile host with its flows.
type Host struct {
	unit *scenario.MHUnit
	sim  *Simulation
	// index is the host's position in AddMobileHost order, the Host field
	// of its reports.
	index int
}

// AddMobileHost places a mobile host on the previous access router's cell
// with the given motion and flows. Traffic starts when Run is called.
func (s *Simulation) AddMobileHost(motion Motion, flows ...Flow) *Host {
	specs := make([]scenario.FlowSpec, len(flows))
	for i, f := range flows {
		specs[i] = scenario.FlowSpec{
			Class:    f.Class,
			Size:     f.PacketBytes,
			Interval: sim.Duration(f.Interval),
		}
	}
	unit := s.tb.AddMobileHost(motion, specs)
	// FlowReport.P99Delay is exact: it reads every kept sample.
	for _, id := range unit.Flows {
		s.tb.Recorder.KeepSamples(id)
	}
	h := &Host{unit: unit, sim: s, index: len(s.hosts)}
	s.hosts = append(s.hosts, h)
	return h
}

// Run starts all traffic, advances the simulation by d, then stops traffic
// and lets buffers drain for two more virtual seconds. Run may be called
// repeatedly to extend a simulation; a negative d is an error.
func (s *Simulation) Run(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("handover: negative run duration %v", d)
	}
	horizon := s.tb.Engine.Now() + sim.Duration(d)
	return s.tb.RunTraffic(horizon, horizon+2*sim.Second)
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration {
	return time.Duration(s.tb.Engine.Now())
}
