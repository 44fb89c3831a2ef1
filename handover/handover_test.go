package handover_test

import (
	"reflect"
	"testing"
	"time"

	"repro/handover"
)

func TestQuickstartScenario(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		Alpha:                2,
		BufferRequestPackets: 20,
		Seed:                 1,
	})
	host := sim.AddMobileHost(handover.LinearPath(50, 10),
		handover.AudioFlow(handover.RealTime),
		handover.AudioFlow(handover.HighPriority),
		handover.AudioFlow(handover.BestEffort),
	)
	if err := sim.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	recs := host.Handoffs()
	if len(recs) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(recs))
	}
	if !recs[0].Anticipated || recs[0].LinkLayerOnly {
		t.Errorf("unexpected handoff shape: %+v", recs[0])
	}
	if blackout := recs[0].Attached - recs[0].Detached; blackout != 200*time.Millisecond {
		t.Errorf("blackout = %v, want 200ms", blackout)
	}

	rep := sim.Report()
	if len(rep.Flows) != 3 {
		t.Fatalf("flows = %d, want 3", len(rep.Flows))
	}
	if rep.TotalLost() != 0 {
		t.Errorf("lost %d packets with ample buffers", rep.TotalLost())
	}
	for _, f := range rep.Flows {
		if f.Sent == 0 || f.Delivered == 0 {
			t.Errorf("flow %d/%d never flowed: %+v", f.Host, f.Index, f)
		}
		if f.MaxDelay < 100*time.Millisecond {
			t.Errorf("flow %d/%d max delay %v; expected a blackout's worth of buffering delay",
				f.Host, f.Index, f.MaxDelay)
		}
	}
}

func TestSchemesAreOrderedByLoss(t *testing.T) {
	lossFor := func(scheme handover.Scheme, request int) uint64 {
		sim := handover.New(handover.Config{
			Scheme:               scheme,
			RouterBufferPackets:  50,
			BufferRequestPackets: request,
			Seed:                 1,
		})
		for i := 0; i < 8; i++ {
			sim.AddMobileHost(handover.LinearPath(50, 10),
				handover.AudioFlow(handover.Unspecified))
		}
		if err := sim.Run(12 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sim.Report().TotalLost()
	}
	noBuffer := lossFor(handover.NoBuffer, 0)
	original := lossFor(handover.OriginalFH, 12)
	dual := lossFor(handover.Dual, 6)
	if original >= noBuffer {
		t.Errorf("original FH lost %d, no-buffer lost %d; buffering did not help", original, noBuffer)
	}
	if dual >= original {
		t.Errorf("dual lost %d, original lost %d; dual buffering did not help", dual, original)
	}
	// SafetyNet claims no buffer space at all and still beats unbuffered
	// fast handover: the anchor's duplicates cover the blackout.
	safetynet := lossFor(handover.SafetyNet, 0)
	if safetynet >= noBuffer {
		t.Errorf("safetynet lost %d, no-buffer lost %d; bicast did not help", safetynet, noBuffer)
	}
}

func TestFlowStats(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		BufferRequestPackets: 20,
	})
	host := sim.AddMobileHost(handover.Stationary(10), handover.AudioFlow(handover.RealTime))
	mover := sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.HighPriority))
	if err := sim.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f, ok := host.FlowStats(0)
	if !ok {
		t.Fatal("FlowStats(0) missing")
	}
	if f.Sent == 0 || f.Lost != 0 {
		t.Errorf("stationary host flow: %+v", f)
	}
	if _, ok := host.FlowStats(5); ok {
		t.Error("FlowStats(5) should not exist")
	}
	if sim.Now() < 12*time.Second {
		t.Errorf("Now() = %v, want ≥ 12s", sim.Now())
	}

	// The second host's own reports carry its index and match Report's.
	rep := sim.Report()
	mf, ok := mover.FlowStats(0)
	if !ok || mf.Host != 1 {
		t.Fatalf("second host FlowStats(0) = %+v, %v; want Host 1", mf, ok)
	}
	if len(rep.Flows) != 2 || rep.Flows[1] != mf {
		t.Errorf("Report().Flows = %+v, want second entry %+v", rep.Flows, mf)
	}
	hs := mover.Handoffs()
	if len(hs) == 0 {
		t.Fatal("second host never handed off")
	}
	if !reflect.DeepEqual(rep.Handoffs, hs) {
		t.Errorf("Report().Handoffs = %+v, want the second host's %+v", rep.Handoffs, hs)
	}
	for _, h := range hs {
		if h.Host != 1 {
			t.Errorf("second host handoff %+v: Host %d, want 1", h, h.Host)
		}
	}
}

func TestWLANBufferedVsUnbuffered(t *testing.T) {
	run := func(buffered bool) handover.TCPReport {
		sim := handover.NewWLAN(handover.WLANConfig{Buffered: buffered, Seed: 1})
		if err := sim.Run(20 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sim.Report()
	}
	buf := run(true)
	unbuf := run(false)
	if buf.Timeouts != 0 {
		t.Errorf("buffered run had %d timeouts", buf.Timeouts)
	}
	if unbuf.Timeouts == 0 {
		t.Error("unbuffered run had no timeout")
	}
	if buf.DeliveredBytes <= unbuf.DeliveredBytes {
		t.Errorf("buffered %d ≤ unbuffered %d bytes", buf.DeliveredBytes, unbuf.DeliveredBytes)
	}
	if len(buf.Handoffs) != 1 || !buf.Handoffs[0].LinkLayerOnly {
		t.Errorf("handoffs = %+v, want one link-layer handoff", buf.Handoffs)
	}
}

func TestWLANThroughputSeries(t *testing.T) {
	sim := handover.NewWLAN(handover.WLANConfig{Buffered: true, Seed: 1})
	if err := sim.Run(15 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pts := sim.Throughput()
	if len(pts) < 100 {
		t.Fatalf("throughput series has %d points", len(pts))
	}
	var peak float64
	for _, p := range pts {
		if p.BitsPerSecond > peak {
			peak = p.BitsPerSecond
		}
	}
	// The paper's Figure 4.14 peaks around 8 Mb/s on the 11 Mb/s WLAN; a
	// post-handoff drain burst may overshoot one 100 ms bucket slightly.
	if peak < 5_000_000 || peak > 13_000_000 {
		t.Errorf("peak goodput %.1f Mb/s outside the WLAN envelope", peak/1e6)
	}
}

func TestLostByClass(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  20,
		Alpha:                6,
		BufferRequestPackets: 20,
		Seed:                 1,
	})
	sim.AddMobileHost(handover.LinearPath(50, 10),
		handover.Flow{Class: handover.RealTime, PacketBytes: 160, Interval: 5 * time.Millisecond},
		handover.Flow{Class: handover.HighPriority, PacketBytes: 160, Interval: 5 * time.Millisecond},
		handover.Flow{Class: handover.BestEffort, PacketBytes: 160, Interval: 5 * time.Millisecond},
	)
	if err := sim.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	byClass := sim.Report().LostByClass()
	if byClass[handover.HighPriority] >= byClass[handover.BestEffort] {
		t.Errorf("high-priority lost %d ≥ best-effort %d",
			byClass[handover.HighPriority], byClass[handover.BestEffort])
	}
}

func TestPlainMobileIPBaseline(t *testing.T) {
	run := func(plain bool, haDelay time.Duration) (lost uint64) {
		sim := handover.New(handover.Config{
			Scheme:               handover.Enhanced,
			RouterBufferPackets:  40,
			BufferRequestPackets: 20,
			PlainMobileIP:        plain,
			HomeAgentDelay:       haDelay,
			Seed:                 1,
		})
		sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.HighPriority))
		if err := sim.Run(12 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sim.Report().TotalLost()
	}
	haDelay := 50 * time.Millisecond
	plain := run(true, haDelay)
	fast := run(false, haDelay)
	if plain <= fast {
		t.Errorf("plain Mobile IP lost %d ≤ fast handover's %d", plain, fast)
	}
	// Even buffered fast handover pays the distant anchor's binding-update
	// latency — a few packets die between release and re-registration.
	// With the local MAP anchor (the hierarchical deployment) it is
	// lossless, which is exactly the paper's Chapter 2 argument.
	local := run(false, 0)
	if local != 0 {
		t.Errorf("fast handover with a local anchor lost %d", local)
	}
	if fast == 0 {
		t.Error("distant anchor cost nothing; binding-update latency unmodelled?")
	}
}

func TestAuthKeyEndToEnd(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		BufferRequestPackets: 20,
		AuthKey:              []byte("shared-domain-key"),
		Seed:                 1,
	})
	sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.HighPriority))
	if err := sim.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := sim.Report()
	if len(rep.Handoffs) != 1 || !rep.Handoffs[0].Anticipated {
		t.Fatalf("authenticated handoff did not complete: %+v", rep.Handoffs)
	}
	if rep.TotalLost() != 0 {
		t.Errorf("lost %d packets", rep.TotalLost())
	}
}

func TestPartialGrantsConfig(t *testing.T) {
	run := func(partial bool) uint64 {
		sim := handover.New(handover.Config{
			Scheme:               handover.OriginalFH,
			RouterBufferPackets:  50,
			BufferRequestPackets: 12,
			PartialGrants:        partial,
			Seed:                 1,
		})
		for i := 0; i < 6; i++ {
			sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.Unspecified))
		}
		if err := sim.Run(12 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sim.Report().TotalLost()
	}
	if p, s := run(true), run(false); p >= s {
		t.Errorf("partial grants lost %d ≥ strict %d", p, s)
	}
}

func TestReportDelayAggregates(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		BufferRequestPackets: 20,
	})
	sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.RealTime))
	if err := sim.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := sim.Report().Flows[0]
	if f.P99Delay < f.MeanDelay || f.MaxDelay < f.P99Delay {
		t.Errorf("delay aggregates inconsistent: mean=%v p99=%v max=%v",
			f.MeanDelay, f.P99Delay, f.MaxDelay)
	}
	if f.Jitter == 0 {
		t.Error("jitter zero across a handoff; implausible")
	}
}

func TestCorridorPublicAPI(t *testing.T) {
	sim := handover.New(handover.Config{
		Routers:              4,
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		Alpha:                2,
		BufferRequestPackets: 20,
		Seed:                 1,
	})
	sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.HighPriority))
	if err := sim.Run(64600 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := sim.Report()
	if len(rep.Handoffs) != 3 {
		t.Fatalf("handoffs = %d, want 3 (four routers)", len(rep.Handoffs))
	}
	for i, h := range rep.Handoffs {
		if !h.Anticipated || !h.NARGranted {
			t.Errorf("handoff %d: %+v", i, h)
		}
	}
	if f := rep.Flows[0]; f.Lost != 0 {
		t.Errorf("lost %d of %d across the corridor", f.Lost, f.Sent)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, ok := range []handover.Config{{}, {Routers: 2}, {Routers: 48}, {RouterBufferPackets: 40, Alpha: 2}, {ControlLossRate: 1}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", ok, err)
		}
	}
	for _, bad := range []handover.Config{
		{RouterBufferPackets: 2, Alpha: 2},
		{RouterBufferPackets: -1},
		{ControlLossRate: 1.5},
		{ControlLossRate: -0.1},
		{Routers: 1},
		{Routers: 49},
		{Scheme: 99},
		{ARLinkDelay: -time.Millisecond},
		{L2HandoffDelay: -time.Millisecond},
		{RAInterval: -time.Millisecond},
		{HomeAgentDelay: -time.Millisecond},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a config New cannot build", bad)
		}
	}
	if err := handover.New(handover.Config{}).Run(-time.Second); err == nil {
		t.Error("Run accepted a negative duration")
	}
	defer func() {
		if recover() == nil {
			t.Error("New built a row that claims the MAP's net")
		}
	}()
	handover.New(handover.Config{Routers: 49})
}

func TestTraceAPI(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		BufferRequestPackets: 20,
		Seed:                 1,
	})
	host := sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.RealTime))
	_ = host
	if got := sim.TraceEvents(); got != nil {
		t.Fatal("trace before EnableTrace should be empty")
	}
	sim.EnableTrace(0)
	sim.EnableTrace(0) // idempotent
	if err := sim.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	events := sim.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	kinds := make(map[string]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"control", "link-down", "link-up", "handoff", "deliver"} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %q events (have %v)", want, kinds)
		}
	}
}

func TestNetworkInitiatedPublicAPI(t *testing.T) {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		BufferRequestPackets: 20,
		HysteresisDB:         3,
		Seed:                 1,
	})
	host := sim.AddMobileHost(handover.Stationary(104), handover.AudioFlow(handover.HighPriority))
	// Let the host hear beacons first.
	if err := sim.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sim.InitiateHandover(host, 20) {
		t.Fatal("InitiateHandover refused")
	}
	if err := sim.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := host.Handoffs()
	if len(recs) != 1 || !recs[0].NARGranted {
		t.Fatalf("handoffs = %+v", recs)
	}
	if sim.Report().TotalLost() != 0 {
		t.Errorf("lost %d packets", sim.Report().TotalLost())
	}
}
