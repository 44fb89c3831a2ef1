package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wireless"
)

func TestPingPongRepeatedHandoffs(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})
	// Bounce between the two coverage areas; each leg crosses the overlap
	// once. Leg duration: 172 m / 10 m/s = 17.2 s.
	unit := tb.AddMobileHost(wireless.PingPong{A: 20, B: 192, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	const legs = 6
	if err := tb.Run(legs * 18 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := unit.MH.Handoffs()
	if len(recs) < legs-1 {
		t.Fatalf("handoffs = %d, want at least %d", len(recs), legs-1)
	}
	anticipated := 0
	for _, r := range recs {
		if r.Anticipated {
			anticipated++
		}
	}
	if anticipated < len(recs)*3/4 {
		t.Errorf("only %d/%d handoffs anticipated", anticipated, len(recs))
	}
	// High-priority audio across buffered handoffs: negligible loss.
	f := tb.Recorder.Flow(unit.Flows[0])
	if f.Lost() > uint64(len(recs)) { // allow a stray packet per handoff
		t.Errorf("lost %d of %d high-priority packets over %d handoffs",
			f.Lost(), f.Sent, len(recs))
	}
	// No leaked state after everything settles.
	if tb.PAR.Pool().Reserved() != 0 || tb.NAR.Pool().Reserved() != 0 {
		t.Errorf("leaked reservations: par=%d nar=%d",
			tb.PAR.Pool().Reserved(), tb.NAR.Pool().Reserved())
	}
}

func TestSimultaneousHandoffsShareThePool(t *testing.T) {
	// Ten hosts, each requesting 10 packets from a 50-packet pool: only
	// five can be granted; with the enhanced scheme the other five still
	// get the PAR's pool (dual buffering doubles capacity).
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      50,
		Alpha:         1,
		BufferRequest: 10,
	})
	const n = 10
	units := make([]*MHUnit, n)
	for i := 0; i < n; i++ {
		units[i] = tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
			AudioFlow(inet.ClassHighPriority),
		})
	}
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	narGrants, parGrants := 0, 0
	for _, u := range units {
		recs := u.MH.Handoffs()
		if len(recs) != 1 {
			t.Fatalf("host %v: %d handoffs, want 1", u.RCoA, len(recs))
		}
		if recs[0].NARGranted {
			narGrants++
		}
		if recs[0].PARGranted {
			parGrants++
		}
	}
	if narGrants != 5 {
		t.Errorf("NAR grants = %d, want 5 (50-packet pool / 10 each)", narGrants)
	}
	if parGrants != 5 {
		t.Errorf("PAR grants = %d, want 5", parGrants)
	}
}

func TestHighPriorityOverflowsToPAR(t *testing.T) {
	// A high-priority flow at 100 packets/s against a 10-packet grant per
	// router: ~20 packets arrive during the 200 ms blackout; the NAR holds
	// 10, sends BufferFull, and the PAR absorbs the remainder (Case 1.b),
	// so losses shrink to the BufferFull round-trip window.
	run := func(scheme core.Scheme) (*Testbed, *MHUnit) {
		tb := NewTestbed(Params{
			Scheme:        scheme,
			PoolSize:      30,
			Alpha:         1,
			BufferRequest: 12, // 24 packets of dual capacity vs ~21 demand
		})
		unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
			{Class: inet.ClassHighPriority, Size: 160, Interval: 10 * sim.Millisecond},
		})
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

	tbEnh, unitEnh := run(core.SchemeEnhanced)
	lostEnh := tbEnh.Recorder.Flow(unitEnh.Flows[0]).Lost()

	tbOrig, unitOrig := run(core.SchemeFHOriginal)
	lostOrig := tbOrig.Recorder.Flow(unitOrig.Flows[0]).Lost()

	if lostEnh >= lostOrig {
		t.Errorf("enhanced lost %d, original FH lost %d; dual buffering did not help",
			lostEnh, lostOrig)
	}
	// The PAR switches to local buffering proactively at the NAR's grant
	// size, so the overflow loses nothing.
	if lostEnh != 0 {
		t.Errorf("enhanced lost %d; proactive overflow should be lossless here", lostEnh)
	}
	if lostOrig < 8 {
		t.Errorf("original FH lost only %d; overflow pressure missing", lostOrig)
	}
}

func TestBufferFullBackstop(t *testing.T) {
	// When the PAR has not learned the NAR's grant size (zero grant
	// reported), the BufferFull message remains the switch signal: inject
	// one directly and verify the PAR starts buffering locally.
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      30,
		Alpha:         1,
		BufferRequest: 12,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		{Class: inet.ClassHighPriority, Size: 160, Interval: 10 * sim.Millisecond},
	})
	sent := false
	tb.MHs[0].MH.OnHandoffDone = func(rec core.HandoffRecord) { sent = true }
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	if !sent {
		t.Fatal("no handoff completed")
	}
	if lost := tb.Recorder.Flow(unit.Flows[0]).Lost(); lost != 0 {
		t.Errorf("lost %d packets", lost)
	}
}

func TestBestEffortSacrificedForHighPriority(t *testing.T) {
	// Heavy three-class traffic against small buffers: the high-priority
	// flow must lose the least (Figures 4.5/4.6).
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      20,
		Alpha:         6, // α reserves PAR slots for the HP overflow
		BufferRequest: 20,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		{Class: inet.ClassRealTime, Size: 160, Interval: 5 * sim.Millisecond},
		{Class: inet.ClassHighPriority, Size: 160, Interval: 5 * sim.Millisecond},
		{Class: inet.ClassBestEffort, Size: 160, Interval: 5 * sim.Millisecond},
	})
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rt := tb.Recorder.Flow(unit.Flows[0]).Lost()
	hp := tb.Recorder.Flow(unit.Flows[1]).Lost()
	be := tb.Recorder.Flow(unit.Flows[2]).Lost()
	if hp >= rt || hp >= be {
		t.Errorf("high-priority not best protected: rt=%d hp=%d be=%d", rt, hp, be)
	}
	if rt+hp+be == 0 {
		t.Error("no losses at all; buffers were not stressed")
	}
}

func TestSchemeDualIgnoresClasses(t *testing.T) {
	// With classification disabled every class shares one fate: loss
	// counts must be within a couple packets of each other (Figure 4.4).
	tb := NewTestbed(Params{
		Scheme:        core.SchemeDual,
		PoolSize:      10,
		BufferRequest: 10,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		{Class: inet.ClassRealTime, Size: 160, Interval: 5 * sim.Millisecond},
		{Class: inet.ClassHighPriority, Size: 160, Interval: 5 * sim.Millisecond},
		{Class: inet.ClassBestEffort, Size: 160, Interval: 5 * sim.Millisecond},
	})
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var losses []uint64
	var total uint64
	for _, id := range unit.Flows {
		l := tb.Recorder.Flow(id).Lost()
		losses = append(losses, l)
		total += l
	}
	if total == 0 {
		t.Fatal("no losses; buffers were not stressed")
	}
	for i := 1; i < len(losses); i++ {
		diff := int64(losses[i]) - int64(losses[0])
		if diff < -4 || diff > 4 {
			t.Errorf("class-disabled losses diverge: %v", losses)
			break
		}
	}
}

func TestRealTimeSkipsPARBuffering(t *testing.T) {
	// With a large AR–AR delay, real-time packets (NAR-buffered) must not
	// pay the PAR→NAR transfer after release, while best-effort packets
	// (PAR-buffered) must (Figure 4.10's separation).
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      60,
		Alpha:         2,
		BufferRequest: 30,
		ARLinkDelay:   50 * sim.Millisecond,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassRealTime),
		AudioFlow(inet.ClassBestEffort),
	})
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rt := tb.Recorder.Flow(unit.Flows[0])
	be := tb.Recorder.Flow(unit.Flows[1])
	if rt.MaxDelay() >= be.MaxDelay() {
		t.Errorf("real-time max delay %v not below best-effort %v",
			rt.MaxDelay(), be.MaxDelay())
	}
	// The separation must be at least the extra AR–AR hop.
	if be.MaxDelay()-rt.MaxDelay() < 40*sim.Millisecond {
		t.Errorf("delay separation %v too small for a 50 ms AR link",
			be.MaxDelay()-rt.MaxDelay())
	}
}

func TestSignalingIsPiggybacked(t *testing.T) {
	// One anticipated handoff costs one of each base message plus the BF
	// relay — the buffer options ride on existing messages (§3.3).
	tb, _ := oneHandoffRun(t, Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})
	if got := tb.PAR.ControlSent(kindHI()); got != 1 {
		t.Errorf("HI sent %d times, want 1", got)
	}
	if got := tb.NAR.ControlSent(kindHAck()); got != 1 {
		t.Errorf("HAck sent %d times, want 1", got)
	}
	if got := tb.NAR.ControlSent(kindBF()); got != 1 {
		t.Errorf("BF relays = %d, want 1", got)
	}
	if got := tb.PAR.ControlSent(kindPrRtAdv()); got != 1 {
		t.Errorf("PrRtAdv sent %d times, want 1", got)
	}
}

func TestPartialGrantsDegradeGracefully(t *testing.T) {
	// Six hosts, 12 packets each, against a 50-packet pool. All-or-nothing
	// grants serve four hosts and refuse two outright; partial grants give
	// the fifth host the remaining two packets, strictly reducing drops.
	run := func(partial bool) uint64 {
		tb := NewTestbed(Params{
			Scheme:        core.SchemeFHOriginal,
			PoolSize:      50,
			BufferRequest: 12,
			PartialGrants: partial,
		})
		for i := 0; i < 6; i++ {
			tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
				AudioFlow(inet.ClassUnspecified),
			})
		}
		tb.StartTraffic()
		if err := tb.Run(12 * sim.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		tb.StopTraffic()
		if err := tb.Engine.Run(14 * sim.Second); err != nil {
			t.Fatalf("Run drain: %v", err)
		}
		return tb.Recorder.TotalLost()
	}
	strict := run(false)
	partial := run(true)
	if strict == 0 {
		t.Fatal("overload scenario lost nothing under strict grants")
	}
	if partial >= strict {
		t.Errorf("partial grants lost %d ≥ strict %d; no graceful degradation", partial, strict)
	}
}

func TestAuthenticatedHandoffSucceeds(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
		AuthKey:       []byte("domain-key"),
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	recs := unit.MH.Handoffs()
	if len(recs) != 1 || !recs[0].Anticipated || !recs[0].NARGranted {
		t.Fatalf("authenticated handoff did not complete normally: %+v", recs)
	}
	if lost := tb.Recorder.Flow(unit.Flows[0]).Lost(); lost != 0 {
		t.Errorf("lost %d packets with matching keys", lost)
	}
	if tb.NAR.AuthRejects() != 0 {
		t.Errorf("NAR rejected %d authentic messages", tb.NAR.AuthRejects())
	}
}

func TestUnauthenticatedHostIsRefused(t *testing.T) {
	// Routers require authentication but the host has no key: the NAR
	// refuses its handoff (the FNA is also discarded), so the host never
	// gains service on the new network — "authentication is required
	// before the NAR accepts handoffs from mobile hosts".
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		BufferRequest: 20,
		AuthKey:       []byte("domain-key"),
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	unit.MH.SetAuthKey(nil) // the host cannot sign
	tb.Recorder.KeepSamples(unit.Flows[0])

	tb.StartTraffic()
	if err := tb.Run(16 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tb.PAR.AuthRejects() == 0 {
		t.Fatal("PAR never rejected the unauthenticated solicitations")
	}
	// No anticipated handoff completed at all: unsigned RtSolPr messages
	// go unanswered, and the eventual unanticipated FNA is discarded too.
	for _, rec := range unit.MH.Handoffs() {
		if rec.Anticipated {
			t.Fatalf("unauthenticated host obtained an anticipated handoff: %+v", rec)
		}
	}
	// Service on the new network is denied: deliveries stop after the
	// host leaves the old coverage (x=112 at t≈6.2s).
	f := tb.Recorder.Flow(unit.Flows[0])
	var lastDelivery sim.Time
	for _, s := range keptDelays(t, f) {
		if s.At > lastDelivery {
			lastDelivery = s.At
		}
	}
	if lastDelivery > 8*sim.Second {
		t.Errorf("unauthenticated host still receiving at %v", lastDelivery)
	}
	if f.Lost() == 0 {
		t.Error("no losses despite denied handoff")
	}
}

func TestWrongKeyRouterPairRefusesHandover(t *testing.T) {
	// The PAR signs with one key but the NAR expects another (e.g. a
	// mis-provisioned neighbour): the HI fails verification, the PAR gets
	// a refusal HAck, releases its session, and informs the host.
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		BufferRequest: 20,
		AuthKey:       []byte("par-key"),
	})
	tb.NAR.SetAuthKey([]byte("different-key"))
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	if err := tb.Run(8 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tb.NAR.AuthRejects() == 0 {
		t.Fatal("mismatched keys never rejected an HI")
	}
	for _, rec := range unit.MH.Handoffs() {
		if rec.Anticipated {
			t.Fatalf("anticipated handoff completed across mismatched keys: %+v", rec)
		}
	}
	if tb.PAR.Sessions() != 0 || tb.PAR.Pool().Reserved() != 0 {
		t.Errorf("refused handover leaked PAR state: sessions=%d reserved=%d",
			tb.PAR.Sessions(), tb.PAR.Pool().Reserved())
	}
}

func TestStationaryHostKeepsBindingAlive(t *testing.T) {
	// The default registration lifetime is 60 s; a stationary host must
	// refresh it indefinitely or its traffic dies at the anchor.
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		BufferRequest: 20,
	})
	unit := tb.AddMobileHost(wireless.Fixed(10), []FlowSpec{
		{Class: inet.ClassHighPriority, Size: 160, Interval: 200 * sim.Millisecond},
	})
	tb.StartTraffic()
	if err := tb.Run(200 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(202 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	f := tb.Recorder.Flow(unit.Flows[0])
	if f.Lost() != 0 {
		t.Errorf("stationary host lost %d of %d packets; binding lapsed", f.Lost(), f.Sent)
	}
	if tb.MAP.NoBinding() != 0 {
		t.Errorf("MAP dropped %d packets for want of a binding", tb.MAP.NoBinding())
	}
}

func TestAttachTraceRecordsTheProtocol(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	log := trace.NewLog(0)
	tb.AttachTrace(log)

	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}

	// The statistics recorder must still have been fed (hooks chain).
	if tb.Recorder.Flow(unit.Flows[0]).Delivered == 0 {
		t.Fatal("trace attachment broke the recorder chain")
	}
	// The control-message sequence of Figure 3.2 appears in order.
	var kinds []string
	for _, ev := range log.Filter(trace.KindControl) {
		kinds = append(kinds, ev.DetailText())
	}
	want := []string{
		"sends RtSolPr", "sends HI", "sends HAck", "sends PrRtAdv",
		"sends FBU", "sends FBAck", "sends FBAck", "sends FNA", "sends BF",
	}
	if len(kinds) < len(want) {
		t.Fatalf("control trace too short: %v", kinds)
	}
	for i, w := range want {
		if kinds[i] != w {
			t.Fatalf("control sequence diverges at %d: got %v, want %v", i, kinds, want)
		}
	}
	// Link events and deliveries were recorded too.
	if len(log.Filter(trace.KindLinkDown)) != 1 || len(log.Filter(trace.KindLinkUp)) != 1 {
		t.Error("link transitions missing from the trace")
	}
	if len(log.Filter(trace.KindHandoff)) != 1 {
		t.Error("handoff completion missing from the trace")
	}
	if len(log.Filter(trace.KindDeliver)) == 0 {
		t.Error("deliveries missing from the trace")
	}
}

func TestShutdownDeregistersAndDetaches(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		BufferRequest: 20,
	})
	unit := tb.AddMobileHost(wireless.Fixed(10), []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	if err := tb.Run(2 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	unit.MH.Shutdown()
	if err := tb.Engine.Run(3 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The MAP binding is gone; further traffic dies at the anchor.
	if _, ok := tb.MAP.Cache().Lookup(unit.RCoA, tb.Engine.Now()); ok {
		t.Error("binding survived shutdown")
	}
	before := tb.MAP.NoBinding()
	if err := tb.Engine.Run(4 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if tb.MAP.NoBinding() <= before {
		t.Error("post-shutdown traffic not accounted at the anchor")
	}
	if unit.Station.AP() != nil {
		t.Error("station still associated after shutdown")
	}
}

func TestShadowBufferingRidesOutBadLink(t *testing.T) {
	// §3.3: the host senses poor link quality, asks its router to buffer,
	// suffers a radio outage without switching APs, then releases. With
	// the shadow buffer nothing is lost; without it, the outage's packets
	// die on the air.
	run := func(protect bool) (lost uint64, maxDelay sim.Time) {
		tb := NewTestbed(Params{
			Scheme:        core.SchemeEnhanced,
			PoolSize:      60,
			Alpha:         2,
			BufferRequest: 40,
		})
		unit := tb.AddMobileHost(wireless.Fixed(10), []FlowSpec{
			AudioFlow(inet.ClassHighPriority),
		})
		tb.StartTraffic()

		// Outage: the radio mutes for 400 ms (detach/re-associate on the
		// same AP, no protocol involvement — pure interference).
		tb.Engine.Schedule(3*sim.Second, func() {
			if protect {
				if !unit.MH.RequestLinkBuffering() {
					t.Error("RequestLinkBuffering refused")
				}
			}
		})
		tb.Engine.Schedule(3200*sim.Millisecond, func() { unit.Station.Detach() })
		tb.Engine.Schedule(3600*sim.Millisecond, func() { unit.Station.Associate(tb.APPAR) })
		tb.Engine.Schedule(3700*sim.Millisecond, func() {
			if protect {
				if !unit.MH.ReleaseLinkBuffering() {
					t.Error("ReleaseLinkBuffering refused")
				}
			}
		})

		if err := tb.Run(6 * sim.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		tb.StopTraffic()
		if err := tb.Engine.Run(8 * sim.Second); err != nil {
			t.Fatalf("Run drain: %v", err)
		}
		f := tb.Recorder.Flow(unit.Flows[0])
		return f.Lost(), f.MaxDelay()
	}

	lostUnprotected, _ := run(false)
	lostProtected, maxDelay := run(true)
	if lostUnprotected < 15 {
		t.Fatalf("outage lost only %d packets unprotected; too mild", lostUnprotected)
	}
	if lostProtected != 0 {
		t.Errorf("shadow buffering still lost %d packets", lostProtected)
	}
	// The protected packets waited out the outage in the router's buffer.
	if maxDelay < 300*sim.Millisecond {
		t.Errorf("max delay %v; buffered packets should carry the outage wait", maxDelay)
	}
}

func TestShadowBufferingRefusedWhenBusy(t *testing.T) {
	tb := NewTestbed(Params{Scheme: core.SchemeEnhanced, PoolSize: 40, BufferRequest: 20})
	unit := tb.AddMobileHost(wireless.Fixed(10), nil)
	if unit.MH.ReleaseLinkBuffering() {
		t.Error("release without a session succeeded")
	}
	if !unit.MH.RequestLinkBuffering() {
		t.Fatal("first request refused")
	}
	if unit.MH.RequestLinkBuffering() {
		t.Error("second concurrent request accepted")
	}
	if err := tb.Run(sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !unit.MH.ReleaseLinkBuffering() {
		t.Error("release after grant refused")
	}
	if err := tb.Engine.Run(2 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tb.PAR.Sessions() != 0 || tb.PAR.Pool().Reserved() != 0 {
		t.Errorf("shadow session leaked: sessions=%d reserved=%d",
			tb.PAR.Sessions(), tb.PAR.Pool().Reserved())
	}
}

func TestOpposingHandoffsShareRoles(t *testing.T) {
	// Host A walks PAR→NAR while host B walks NAR→PAR at the same time:
	// each router simultaneously plays the PAR role for one host and the
	// NAR role for the other. Host B starts as a resident of the NAR.
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      60,
		Alpha:         2,
		BufferRequest: 20,
	})
	a := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	b := tb.AddMobileHost(wireless.Linear{Start: APDistance - 50, Speed: -MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	// Re-home host B onto the NAR side.
	b.MH.Attach(tb.APNAR, tb.NAR.Addr(), NetNAR)
	tb.PAR.DetachResident(inet.Addr{Net: NetPAR, Host: 11})
	for _, ifc := range tb.NAR.Router().Ifaces() {
		if ifc.Peer() == netsim.Node(tb.APNAR) {
			tb.NAR.AttachResident(b.MH.LCoA(), ifc)
		}
	}
	tb.MAP.Register(b.RCoA, b.MH.LCoA(), 3600*sim.Second)

	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}

	for name, unit := range map[string]*MHUnit{"A": a, "B": b} {
		recs := unit.MH.Handoffs()
		if len(recs) != 1 {
			t.Fatalf("host %s: handoffs = %d, want 1", name, len(recs))
		}
		if !recs[0].Anticipated || !recs[0].NARGranted || !recs[0].PARGranted {
			t.Errorf("host %s handoff: %+v", name, recs[0])
		}
		if lost := tb.Recorder.Flow(unit.Flows[0]).Lost(); lost != 0 {
			t.Errorf("host %s lost %d packets", name, lost)
		}
	}
	if tb.PAR.Sessions() != 0 || tb.NAR.Sessions() != 0 {
		t.Errorf("sessions leaked: par=%d nar=%d", tb.PAR.Sessions(), tb.NAR.Sessions())
	}
}

func TestDeterminism(t *testing.T) {
	// Same configuration, same seed: bit-identical results — the property
	// every experiment in this repository relies on.
	run := func() (uint64, uint64, sim.Time, uint64) {
		tb := NewTestbed(Params{
			Scheme:        core.SchemeEnhanced,
			PoolSize:      20,
			Alpha:         6,
			BufferRequest: 20,
			Seed:          42,
		})
		unit := tb.AddMobileHost(wireless.PingPong{A: 20, B: 192, Speed: MHSpeed}, []FlowSpec{
			{Class: inet.ClassRealTime, Size: 160, Interval: 7 * sim.Millisecond},
			{Class: inet.ClassHighPriority, Size: 160, Interval: 9 * sim.Millisecond},
			{Class: inet.ClassBestEffort, Size: 160, Interval: 11 * sim.Millisecond},
		})
		tb.Recorder.KeepSamples(unit.Flows[1])
		tb.StartTraffic()
		if err := tb.Run(60 * sim.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		delays := keptDelays(t, tb.Recorder.Flow(unit.Flows[1]))
		lastAt := delays[len(delays)-1].At
		return tb.Recorder.TotalSent(), tb.Recorder.TotalLost(), lastAt, tb.Engine.Processed()
	}
	s1, l1, t1, p1 := run()
	s2, l2, t2, p2 := run()
	if s1 != s2 || l1 != l2 || t1 != t2 || p1 != p2 {
		t.Fatalf("nondeterminism: (%d,%d,%v,%d) vs (%d,%d,%v,%d)",
			s1, l1, t1, p1, s2, l2, t2, p2)
	}
	if p1 == 0 || s1 == 0 {
		t.Fatal("degenerate run")
	}
}

func TestLongRunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	// Twenty ping-pong legs under the enhanced scheme with ample buffers:
	// no loss, no leaked state, no drift.
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      60,
		Alpha:         2,
		BufferRequest: 30,
	})
	unit := tb.AddMobileHost(wireless.PingPong{A: 20, B: 192, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	if err := tb.Run(20 * 18 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(20*18*sim.Second + 5*sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	recs := unit.MH.Handoffs()
	if len(recs) < 18 {
		t.Fatalf("handoffs = %d, want ≈20", len(recs))
	}
	f := tb.Recorder.Flow(unit.Flows[0])
	if f.Lost() > 2 {
		t.Errorf("lost %d of %d over %d handoffs", f.Lost(), f.Sent, len(recs))
	}
	if tb.PAR.Sessions()+tb.NAR.Sessions() != 0 {
		t.Errorf("sessions leaked: %d/%d", tb.PAR.Sessions(), tb.NAR.Sessions())
	}
	if tb.PAR.Pool().Reserved()+tb.NAR.Pool().Reserved() != 0 {
		t.Errorf("reservations leaked: %d/%d",
			tb.PAR.Pool().Reserved(), tb.NAR.Pool().Reserved())
	}
}

func TestHysteresisTradesAnticipationForStability(t *testing.T) {
	// The hysteresis margin moves the RSSI crossover deeper into the
	// overlap. In the thesis' geometry the edge of the old cell (112 m)
	// offers only 30·log10(112/100) ≈ 1.5 dB of margin, so a 6 dB
	// hysteresis pushes the crossover past the coverage edge entirely:
	// anticipation becomes impossible and the host falls back to the
	// lossy unanticipated path. Hysteresis is an anti-flapping knob that
	// spends the overlap budget.
	run := func(hysteresis float64) core.HandoffRecord {
		tb := NewTestbed(Params{
			Scheme:        core.SchemeEnhanced,
			PoolSize:      40,
			BufferRequest: 20,
			HysteresisDB:  hysteresis,
		})
		unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
			AudioFlow(inet.ClassHighPriority),
		})
		if err := tb.Run(16 * sim.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		recs := unit.MH.Handoffs()
		if len(recs) != 1 {
			t.Fatalf("handoffs = %d, want 1", len(recs))
		}
		return recs[0]
	}
	base := run(0)
	if !base.Anticipated {
		t.Fatal("0 dB hysteresis should anticipate")
	}
	// 1 dB fits inside the overlap's ≈1.5 dB budget: still anticipated,
	// but triggered later (the crossover moves from ≈106 m to ≈110 m).
	mild := run(1)
	if mild.Triggered < base.Triggered {
		t.Errorf("1 dB hysteresis triggered earlier (%v) than 0 dB (%v)",
			mild.Triggered, base.Triggered)
	}
	// 6 dB exceeds the budget: anticipation impossible, fallback engaged.
	harsh := run(6)
	if harsh.Anticipated {
		t.Error("6 dB hysteresis still anticipated; crossover math wrong")
	}
	if harsh.Triggered <= base.Triggered {
		t.Errorf("fallback trigger %v not after the anticipated one %v",
			harsh.Triggered, base.Triggered)
	}
}

func TestNetworkInitiatedHandover(t *testing.T) {
	// The network decides: the PAR initiates the handover for a stationary
	// host sitting in the overlap (e.g. for load balancing). The host has
	// heard the target's beacons, accepts the unsolicited PrRtAdv, and the
	// handover completes buffered and lossless.
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
		// Hysteresis keeps the stationary host from trigger-flapping in
		// either direction: near the midpoint the RSSI difference is
		// ≈0.5 dB, well under the 3 dB margin, so only the network's
		// decision moves it (and it stays moved).
		HysteresisDB: 3,
	})
	unit := tb.AddMobileHost(wireless.Fixed(104), []FlowSpec{ // overlap, PAR side
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	// Let beacons register, then push the host off the PAR.
	initiated := false
	tb.Engine.Schedule(3*sim.Second, func() {
		initiated = tb.PAR.InitiateHandover(unit.MH.LCoA(), "ap-nar", 20)
	})
	if err := tb.Run(8 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(10 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	if !initiated {
		t.Fatal("InitiateHandover refused")
	}
	recs := unit.MH.Handoffs()
	if len(recs) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(recs))
	}
	if !recs[0].NARGranted || !recs[0].PARGranted {
		t.Errorf("grants: %+v", recs[0])
	}
	if lost := tb.Recorder.Flow(unit.Flows[0]).Lost(); lost != 0 {
		t.Errorf("network-initiated handover lost %d packets", lost)
	}
	// The host now lives on the NAR.
	if unit.MH.LCoA().Net != NetNAR {
		t.Errorf("LCoA on net %d, want %d", unit.MH.LCoA().Net, NetNAR)
	}
	if tb.PAR.Sessions()+tb.NAR.Sessions() != 0 {
		t.Errorf("sessions leaked: %d/%d", tb.PAR.Sessions(), tb.NAR.Sessions())
	}
}

func TestNetworkInitiatedRefusals(t *testing.T) {
	tb := NewTestbed(Params{Scheme: core.SchemeEnhanced, PoolSize: 40, BufferRequest: 20})
	unit := tb.AddMobileHost(wireless.Fixed(104), nil)
	if tb.PAR.InitiateHandover(unit.MH.LCoA(), "nowhere", 20) {
		t.Error("unknown AP accepted")
	}
	if tb.PAR.InitiateHandover(unit.MH.LCoA(), "ap-par", 20) {
		t.Error("own AP accepted as a network-handover target")
	}
	if !tb.PAR.InitiateHandover(unit.MH.LCoA(), "ap-nar", 20) {
		t.Fatal("valid target refused")
	}
	if tb.PAR.InitiateHandover(unit.MH.LCoA(), "ap-nar", 20) {
		t.Error("duplicate initiation accepted")
	}
	// The host has heard no beacons yet (traffic never started, but
	// beacons run regardless — drain the first ones): regardless, the
	// session must not leak if the host never acts.
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tb.PAR.Pool().Reserved()+tb.NAR.Pool().Reserved() != 0 {
		t.Errorf("reservations leaked: %d/%d",
			tb.PAR.Pool().Reserved(), tb.NAR.Pool().Reserved())
	}
}
