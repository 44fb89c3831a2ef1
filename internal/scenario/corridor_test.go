package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inet"
)

func TestCorridorHandsOffAtEveryBoundary(t *testing.T) {
	const routers = 5
	c := NewCorridor(CorridorParams{
		Routers:       routers,
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	}, AudioFlow(inet.ClassHighPriority))
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	recs := c.MH.Handoffs()
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
	f := c.Recorder.Flow(c.Flow)
	if f.Lost() != 0 {
		t.Errorf("lost %d of %d packets across the corridor", f.Lost(), f.Sent)
	}

	// The host ends up bound to the last router's network.
	b, ok := c.MAP.Cache().Lookup(inet.Addr{Net: NetMAP, Host: 1000}, c.Engine.Now())
	if !ok {
		t.Fatal("MAP binding missing after the walk")
	}
	if want := corridorNetBase + inet.NetID(routers-1); b.CoA.Net != want {
		t.Errorf("final binding on net %d, want %d", b.CoA.Net, want)
	}

	// Every intermediate router's sessions and reservations drained.
	for i, ar := range c.ARs {
		if ar.Sessions() != 0 {
			t.Errorf("ar%d leaked %d sessions", i, ar.Sessions())
		}
		if ar.Pool().Reserved() != 0 {
			t.Errorf("ar%d leaked %d reserved packets", i, ar.Pool().Reserved())
		}
	}
}

func TestCorridorUnbufferedLosesPerHop(t *testing.T) {
	const routers = 4
	c := NewCorridor(CorridorParams{
		Routers: routers,
		Scheme:  core.SchemeFHNoBuffer,
	}, AudioFlow(inet.ClassHighPriority))
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := c.MH.Handoffs()
	if len(recs) != routers-1 {
		t.Fatalf("handoffs = %d, want %d", len(recs), routers-1)
	}
	f := c.Recorder.Flow(c.Flow)
	// Each 200 ms blackout at 50 packets/s costs ≈10 packets.
	perHop := float64(f.Lost()) / float64(routers-1)
	if perHop < 7 || perHop > 16 {
		t.Errorf("per-hop loss = %.1f (total %d), want ≈10", perHop, f.Lost())
	}
}

func TestCorridorDeliversInOrder(t *testing.T) {
	c := NewCorridor(CorridorParams{
		Routers:       3,
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	}, AudioFlow(inet.ClassRealTime))
	c.Recorder.KeepSamples(c.Flow)
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := c.Recorder.Flow(c.Flow)
	last := int64(-1)
	for _, s := range keptDelays(t, f) {
		if int64(s.Seq) <= last {
			t.Fatalf("out-of-order delivery: seq %d after %d", s.Seq, last)
		}
		last = int64(s.Seq)
	}
}
