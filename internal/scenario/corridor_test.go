package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// newCorridor builds a row of routers with one host at 50 m into the first
// cell, carrying one flow of the given spec.
func newCorridor(p Params, flow FlowSpec) (*Testbed, *MHUnit) {
	tb := NewTestbed(p)
	return tb, tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{flow})
}

// walkCorridor walks the host with traffic flowing to 60 m past the last
// access point — well inside the final cell (coverage extends 112 m), so
// the run ends with the host still covered — then drains for two seconds.
func walkCorridor(t *testing.T, tb *Testbed) {
	t.Helper()
	meters := float64(tb.Params.Routers-1)*APDistance + 10
	walk := sim.Time(meters / MHSpeed * float64(sim.Second))
	tb.StartTraffic()
	if err := tb.Run(walk); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Run(walk + 2*sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCorridorHandsOffAtEveryBoundary(t *testing.T) {
	const routers = 5
	tb, unit := newCorridor(Params{
		Routers:       routers,
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	}, AudioFlow(inet.ClassHighPriority))
	walkCorridor(t, tb)

	recs := unit.MH.Handoffs()
	if len(recs) != routers-1 {
		t.Fatalf("handoffs = %d, want %d", len(recs), routers-1)
	}
	for i, rec := range recs {
		if !rec.Anticipated {
			t.Errorf("handoff %d was not anticipated", i)
		}
		if !rec.NARGranted || !rec.PARGranted {
			t.Errorf("handoff %d grants: nar=%t par=%t", i, rec.NARGranted, rec.PARGranted)
		}
	}

	// Buffered end to end: nothing lost across four handoffs.
	f := tb.Recorder.Flow(unit.Flows[0])
	if f.Lost() != 0 {
		t.Errorf("lost %d of %d packets across the corridor", f.Lost(), f.Sent)
	}

	// The host ends up bound to the last router's network.
	b, ok := tb.MAP.Cache().Lookup(unit.RCoA, tb.Engine.Now())
	if !ok {
		t.Fatal("MAP binding missing after the walk")
	}
	if want := NetPAR + inet.NetID(routers-1); b.CoA.Net != want {
		t.Errorf("final binding on net %d, want %d", b.CoA.Net, want)
	}

	// Every intermediate router's sessions and reservations drained.
	for _, ar := range tb.ARs {
		if ar.Sessions() != 0 {
			t.Errorf("%s leaked %d sessions", ar.Router().Name(), ar.Sessions())
		}
		if ar.Pool().Reserved() != 0 {
			t.Errorf("%s leaked %d reserved packets", ar.Router().Name(), ar.Pool().Reserved())
		}
	}
}

func TestCorridorUnbufferedLosesPerHop(t *testing.T) {
	const routers = 4
	tb, unit := newCorridor(Params{
		Routers: routers,
		Scheme:  core.SchemeFHNoBuffer,
	}, AudioFlow(inet.ClassHighPriority))
	walkCorridor(t, tb)
	recs := unit.MH.Handoffs()
	if len(recs) != routers-1 {
		t.Fatalf("handoffs = %d, want %d", len(recs), routers-1)
	}
	f := tb.Recorder.Flow(unit.Flows[0])
	// Each 200 ms blackout at 50 packets/s costs ≈10 packets.
	perHop := float64(f.Lost()) / float64(routers-1)
	if perHop < 7 || perHop > 16 {
		t.Errorf("per-hop loss = %.1f (total %d), want ≈10", perHop, f.Lost())
	}
}

func TestCorridorDeliversInOrder(t *testing.T) {
	tb, unit := newCorridor(Params{
		Routers:       3,
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	}, AudioFlow(inet.ClassRealTime))
	tb.Recorder.KeepSamples(unit.Flows[0])
	walkCorridor(t, tb)
	f := tb.Recorder.Flow(unit.Flows[0])
	last := int64(-1)
	for _, s := range keptDelays(t, f) {
		if int64(s.Seq) <= last {
			t.Fatalf("out-of-order delivery: seq %d after %d", s.Seq, last)
		}
		last = int64(s.Seq)
	}
}

// TestCorridorPoolsStayBalanced walks a five-router row and checks that
// every pooled packet came back after the drain: each handoff's dead
// packets (buffer drops, stripped tunnels, SafetyNet duplicates) pass
// through the sink.
func TestCorridorPoolsStayBalanced(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeEnhanced, core.SchemeFHNoBuffer, core.SchemeSafetyNet} {
		t.Run(scheme.String(), func(t *testing.T) {
			tb, unit := newCorridor(Params{
				Routers:       5,
				Scheme:        scheme,
				PoolSize:      40,
				Alpha:         2,
				BufferRequest: 20,
			}, AudioFlow(inet.ClassHighPriority))
			walkCorridor(t, tb)
			if n := len(unit.MH.Handoffs()); n != 4 {
				t.Fatalf("handoffs = %d, want 4", n)
			}
			st := tb.Topo.PoolStats()
			if st.Gets == 0 {
				t.Fatal("no packet came from the pool, so the check below proves nothing")
			}
			if st.Gets != st.Puts {
				t.Fatalf("%d packets handed out, %d recycled after the drain", st.Gets, st.Puts)
			}
		})
	}
}
