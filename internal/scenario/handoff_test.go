package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// oneHandoffRun walks one mobile host from the PAR to the NAR with three
// audio flows (RT/HP/BE) and returns the testbed after the walk.
func oneHandoffRun(t *testing.T, p Params) (*Testbed, *MHUnit) {
	t.Helper()
	tb := NewTestbed(p)
	// Start at 50 m, walk past the NAR's AP; trigger happens in the
	// overlap around x≈100–112 m (t≈5–6.2 s).
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassRealTime),
		AudioFlow(inet.ClassHighPriority),
		AudioFlow(inet.ClassBestEffort),
	})
	for _, id := range unit.Flows {
		tb.Recorder.KeepSamples(id)
	}
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	return tb, unit
}

// keptDelays returns a kept flow's delay samples, failing the test unless
// the flow kept one for each of its deliveries and had at least one: a
// check over an empty slice would pass vacuously.
func keptDelays(t *testing.T, f *stats.FlowStats) []stats.DelaySample {
	t.Helper()
	if n := len(f.Delays); n == 0 || n != int(f.DelayCount()) {
		t.Fatalf("flow %d kept %d samples of %d deliveries", f.Flow, n, f.DelayCount())
	}
	return f.Delays
}

func TestSingleHandoffEnhanced(t *testing.T) {
	tb, unit := oneHandoffRun(t, Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})

	recs := unit.MH.Handoffs()
	if len(recs) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.Anticipated {
		t.Error("handoff was not anticipated despite the overlap")
	}
	if rec.LinkLayerOnly {
		t.Error("network handoff misclassified as link-layer only")
	}
	if !rec.NARGranted || !rec.PARGranted {
		t.Errorf("negotiation = nar:%t par:%t, want both granted", rec.NARGranted, rec.PARGranted)
	}
	if got := rec.Attached - rec.Detached; got != tb.Params.L2HandoffDelay {
		t.Errorf("blackout = %v, want %v", got, tb.Params.L2HandoffDelay)
	}

	// With both buffers granted and light traffic, nothing is lost.
	for _, id := range unit.Flows {
		f := tb.Recorder.Flow(id)
		if f == nil || f.Sent == 0 {
			t.Fatalf("flow %d never sent", id)
		}
		if f.Lost() > 0 {
			t.Errorf("flow %d (class %v): lost %d of %d", id, f.Class, f.Lost(), f.Sent)
		}
	}

	// The MAP binding must have moved to the new care-of address.
	b, ok := tb.MAP.Cache().Lookup(unit.RCoA, tb.Engine.Now())
	if !ok {
		t.Fatal("MAP binding gone after handoff")
	}
	if b.CoA.Net != NetNAR {
		t.Errorf("MAP binding CoA = %v, want a net-%d address", b.CoA, NetNAR)
	}

	// Sessions must have been cleaned up on both routers.
	if tb.PAR.Sessions() != 0 || tb.NAR.Sessions() != 0 {
		t.Errorf("leftover sessions: par=%d nar=%d", tb.PAR.Sessions(), tb.NAR.Sessions())
	}
	if tb.PAR.Pool().Reserved() != 0 || tb.NAR.Pool().Reserved() != 0 {
		t.Errorf("leaked reservations: par=%d nar=%d",
			tb.PAR.Pool().Reserved(), tb.NAR.Pool().Reserved())
	}
}

func TestSingleHandoffNoBufferLosesPackets(t *testing.T) {
	tb, unit := oneHandoffRun(t, Params{
		Scheme: core.SchemeFHNoBuffer,
	})
	if len(unit.MH.Handoffs()) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(unit.MH.Handoffs()))
	}
	// A 200 ms blackout at 3×50 packets/s loses on the order of 30
	// packets; they die on the air at the NAR's access point.
	lost := tb.Recorder.TotalLost()
	if lost < 15 {
		t.Errorf("total lost = %d, want a blackout's worth (≥15)", lost)
	}
	if air := tb.Recorder.DropsAt(DropOnAir); air == 0 {
		t.Error("no air drops recorded; blackout losses unaccounted")
	}
}

func TestSingleHandoffOriginalFH(t *testing.T) {
	tb, unit := oneHandoffRun(t, Params{
		Scheme:        core.SchemeFHOriginal,
		PoolSize:      40,
		BufferRequest: 40,
	})
	rec := unit.MH.Handoffs()[0]
	if !rec.NARGranted {
		t.Error("NAR grant missing")
	}
	if rec.PARGranted {
		t.Error("original FH must not reserve at the PAR")
	}
	if lost := tb.Recorder.TotalLost(); lost > 0 {
		t.Errorf("lost %d packets with a 40-packet NAR buffer", lost)
	}
}

func TestSingleHandoffDeliversInOrderPerFlow(t *testing.T) {
	tb, unit := oneHandoffRun(t, Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})
	for _, id := range unit.Flows {
		f := tb.Recorder.Flow(id)
		last := int64(-1)
		for _, s := range keptDelays(t, f) {
			if int64(s.Seq) <= last {
				t.Errorf("flow %d delivered seq %d after %d", id, s.Seq, last)
				break
			}
			last = int64(s.Seq)
		}
	}
}

func TestHandoffDelaysSpikeOnlyAroundBlackout(t *testing.T) {
	tb, unit := oneHandoffRun(t, Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})
	rec := unit.MH.Handoffs()[0]
	for _, id := range unit.Flows {
		f := tb.Recorder.Flow(id)
		for _, s := range keptDelays(t, f) {
			baseline := s.Delay < 20*sim.Millisecond
			inWindow := s.At >= rec.Detached && s.At <= rec.Attached+sim.Second
			if !baseline && !inWindow {
				t.Errorf("flow %d seq %d: delay %v outside the handoff window (at %v)",
					id, s.Seq, s.Delay, s.At)
			}
		}
	}
}
