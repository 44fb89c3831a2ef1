// Package scenario builds the thesis' simulation scenarios (the Figure 4.1
// hierarchical topology and the Figure 4.11 single-router WLAN) and runs
// one experiment per figure of Chapter 4.
package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/wireless"
)

// Network prefixes of the reference topology.
const (
	NetCN   inet.NetID = 1
	NetPAR  inet.NetID = 2
	NetNAR  inet.NetID = 3
	NetMAP  inet.NetID = 50
	NetHome inet.NetID = 60
)

// Drop location labels used in recorders, extending the core package's.
const (
	DropOnAir = "air"
)

// Params configures the Figure 4.1 testbed. Zero values select the thesis'
// settings.
type Params struct {
	// Routers is the number of access routers in the row (default 2, the
	// thesis' PAR and NAR; at most NetMAP−NetPAR). Router i is named par,
	// nar, ar2, ar3, …, owns net NetPAR+i and has one access point, named
	// "ap-" plus its name, at i·APDistance. Neighbours are linked directly
	// with ARLinkDelay; a host walking the row hands off at every boundary,
	// the protocol re-casting the PAR and NAR roles each time.
	Routers int
	// Scheme selects the buffering behaviour on every access router.
	Scheme core.Scheme
	// PoolSize is each access router's buffer pool in packets (e.g. 40 for
	// the original fast handover runs, 20 for the proposed scheme).
	PoolSize int
	// Alpha is the PAR's best-effort admission threshold.
	Alpha int
	// BufferRequest is each mobile host's BI size. Zero requests nothing.
	BufferRequest int
	// ARLinkDelay is each neighbour link's delay, the PAR–NAR link's among
	// them (2 ms in most figures, 50 ms in Figure 4.10).
	ARLinkDelay sim.Time
	// L2HandoffDelay is the blackout (200 ms in the thesis).
	L2HandoffDelay sim.Time
	// RAInterval is the router-advertisement period. The thesis uses 1 s
	// and triggers on the first advertisement heard in the 12 m overlap;
	// this model triggers only once the new AP is strictly closer (a 6 m /
	// 0.6 s window at 10 m/s), so the default period is 500 ms to keep the
	// thesis' guarantee that every handoff is anticipated.
	RAInterval sim.Time
	// DrainInterval optionally paces buffer drains.
	DrainInterval sim.Time
	// PartialGrants enables the precise-allocation extension.
	PartialGrants bool
	// AuthKey enables HMAC authentication of handover messages on both
	// routers and all hosts.
	AuthKey []byte
	// Mobility selects fast handover (default) or the plain Mobile IP
	// baseline for every host.
	Mobility core.Mobility
	// HomeAgentDelay, when positive, adds a home agent this far (one-way)
	// behind the MAP and anchors every host there instead of at the MAP —
	// the classic Mobile IP deployment whose registration latency the
	// hierarchical architecture exists to hide.
	HomeAgentDelay sim.Time
	// HysteresisDB is the signal-strength margin for the handover trigger.
	HysteresisDB float64
	// ControlLossRate, when positive, drops each control-plane packet on
	// the access links (AR–AP both sides and the PAR–NAR link) with this
	// probability, drawn from a seeded per-interface stream, and enables
	// the unacked-retransmission paths on the routers and hosts. Data
	// packets are never injected with loss: the loss axis isolates
	// signaling resilience.
	ControlLossRate float64
	// Seed drives beacon phases and the fault injector.
	Seed int64
	// StatsMode once selected the recorder's delay retention.
	//
	// Deprecated: ignored. The recorder streams; a reader of per-packet
	// samples calls Recorder.KeepSamples on its flows.
	StatsMode stats.Mode
	// Engine, when set, is reused for this testbed instead of creating a
	// fresh one. NewTestbed resets it first, so a worker can run many
	// replicas on one engine and keep its warmed-up event free list and
	// queue capacity. Results are identical either way (Reset rewinds the
	// clock and sequence counter completely).
	Engine *sim.Engine
}

func (p *Params) applyDefaults() {
	if p.Routers == 0 {
		p.Routers = 2
	}
	if p.Scheme == 0 {
		p.Scheme = core.SchemeEnhanced
	}
	if p.ARLinkDelay == 0 {
		p.ARLinkDelay = 2 * sim.Millisecond
	}
	if p.L2HandoffDelay == 0 {
		p.L2HandoffDelay = 200 * sim.Millisecond
	}
	if p.RAInterval == 0 {
		p.RAInterval = 500 * sim.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Geometry of the reference scenario (Figure 4.1): access routers 212 m
// apart, 112 m coverage radius, 12 m overlap, hosts moving at 10 m/s.
const (
	APDistance = 212.0
	APRadius   = 112.0
	MHSpeed    = 10.0
)

// Link-rate constants of the reference topology.
const (
	coreBandwidth = 100_000_000 // CN–MAP
	arBandwidth   = 10_000_000  // MAP–AR, AR–AR
	apBandwidth   = 100_000_000 // AR–AP
	airBandwidth  = 11_000_000  // 802.11b
)

// FlowSpec describes one CBR flow from the correspondent node to a mobile
// host.
type FlowSpec struct {
	Class    inet.Class
	Size     int
	Interval sim.Time
}

// AudioFlow returns the thesis' canonical 64 kb/s audio flow (160-byte
// packets every 20 ms) with the given class.
func AudioFlow(class inet.Class) FlowSpec {
	return FlowSpec{Class: class, Size: 160, Interval: 20 * sim.Millisecond}
}

// MHUnit bundles one mobile host with its traffic.
type MHUnit struct {
	MH      *core.MobileHost
	Station *wireless.Station
	RCoA    inet.Addr
	Sources []*traffic.CBR
	Flows   []inet.FlowID
}

// Testbed is the assembled Figure 4.1 network: a row of access routers
// under one MAP, the first two of which are the thesis' PAR and NAR.
type Testbed struct {
	Params   Params
	Engine   *sim.Engine
	Topo     *netsim.Topology
	Medium   *wireless.Medium
	Recorder *stats.Recorder
	RNG      *sim.RNG

	CN   *netsim.Host
	MAP  *mip.Agent
	Home *mip.Agent
	// ARs and APs are the row's access routers and their access points,
	// in order; PAR, NAR, APPAR and APNAR are their first two entries.
	ARs   []*core.AccessRouter
	APs   []*wireless.AccessPoint
	PAR   *core.AccessRouter
	NAR   *core.AccessRouter
	APPAR *wireless.AccessPoint
	APNAR *wireless.AccessPoint
	MHs   []*MHUnit

	apLinks []*netsim.Link
	sink    *sink

	// Faults is the control-plane loss injector, nil unless
	// Params.ControlLossRate is positive.
	Faults *netsim.FaultInjector
}

// NewTestbed assembles the reference topology with no mobile hosts yet.
func NewTestbed(p Params) *Testbed {
	p.applyDefaults()
	if p.Routers < 2 || p.Routers > int(NetMAP-NetPAR) {
		panic(fmt.Sprintf("scenario: a row of %d access routers; it takes 2 to %d", p.Routers, NetMAP-NetPAR))
	}
	engine := p.Engine
	if engine == nil {
		engine = sim.NewEngine()
	} else {
		engine.Reset()
	}
	topo := netsim.NewTopology(engine)
	medium := wireless.NewMedium(engine)
	rng := sim.NewRNG(p.Seed)

	// The construction order (links, net claims, beacon phases, fault
	// streams) is fixed: it decides every sequence number and random draw.
	cn := netsim.NewHost("cn", inet.Addr{Net: NetCN, Host: 1})
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: NetMAP, Host: 1})
	topo.Connect(cn, mapRouter, netsim.LinkConfig{BandwidthBPS: coreBandwidth, Delay: 2 * sim.Millisecond})
	topo.ClaimNet(NetCN, cn)
	topo.ClaimNet(NetMAP, mapRouter)
	routers := make([]*netsim.Router, p.Routers)
	for i := range routers {
		name := fmt.Sprintf("ar%d", i)
		if i < 2 {
			name = [...]string{"par", "nar"}[i]
		}
		net := NetPAR + inet.NetID(i)
		routers[i] = netsim.NewRouter(name, inet.Addr{Net: net, Host: 1})
		topo.Connect(mapRouter, routers[i], netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: 2 * sim.Millisecond})
		topo.ClaimNet(net, routers[i])
	}
	neighbours := make([]*netsim.Link, p.Routers-1)
	for i := range neighbours {
		neighbours[i] = topo.Connect(routers[i], routers[i+1], netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: p.ARLinkDelay})
	}
	aps := make([]*wireless.AccessPoint, p.Routers)
	apLinks := make([]*netsim.Link, p.Routers)
	for i, r := range routers {
		aps[i] = wireless.NewAccessPoint("ap-"+r.Name(), medium, wireless.APConfig{
			Pos: float64(i) * APDistance, Radius: APRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
			ReturnUndeliverable: true,
		})
		apLinks[i] = topo.Connect(r, aps[i], netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})
	}
	if err := topo.ComputeRoutes(); err != nil {
		panic(fmt.Sprintf("scenario: route computation failed: %v", err))
	}
	// Inter-AR traffic (handover signalling and redirected packets) is
	// pinned to the direct neighbour links: the thesis varies the PAR–NAR
	// link's delay specifically, so it must stay on the path even when
	// slower than the detour through the MAP.
	pinNeighbours := func() {
		for i, l := range neighbours {
			routers[i].AddPrefixRoute(NetPAR+inet.NetID(i+1), l.A())
			routers[i+1].AddPrefixRoute(NetPAR+inet.NetID(i), l.B())
		}
	}
	pinNeighbours()

	agent := mip.NewAgent(engine, mapRouter, mip.AgentConfig{
		ManagedNet: NetMAP,
		Alloc:      topo.AllocPacket,
	})

	var home *mip.Agent
	if p.HomeAgentDelay > 0 {
		haRouter := netsim.NewRouter("ha", inet.Addr{Net: NetHome, Host: 1})
		topo.Connect(mapRouter, haRouter, netsim.LinkConfig{
			BandwidthBPS: coreBandwidth, Delay: p.HomeAgentDelay,
		})
		topo.ClaimNet(NetHome, haRouter)
		if err := topo.ComputeRoutes(); err != nil {
			panic(fmt.Sprintf("scenario: home-agent route computation failed: %v", err))
		}
		// Re-pin the inter-AR routes clobbered by the recomputation.
		pinNeighbours()
		home = mip.NewAgent(engine, haRouter, mip.AgentConfig{
			ManagedNet: NetHome,
			Alloc:      topo.AllocPacket,
		})
	}

	dir := core.NewDirectory()
	recorder := stats.NewRecorder()
	arCfg := core.ARConfig{
		Scheme:            p.Scheme,
		PoolSize:          p.PoolSize,
		Alpha:             p.Alpha,
		DrainInterval:     p.DrainInterval,
		PartialGrants:     p.PartialGrants,
		AuthKey:           p.AuthKey,
		RetransmitUnacked: p.ControlLossRate > 0,
		Alloc:             topo.AllocPacket,
		Release:           topo.ReleasePacket,
	}
	ars := make([]*core.AccessRouter, p.Routers)
	for i, r := range routers {
		ars[i] = core.NewAccessRouter(engine, r, NetPAR+inet.NetID(i), dir, arCfg)
		ars[i].AddAP(aps[i].Name(), apLinks[i].A())
	}

	// Every dead packet goes through the sink. Wired tail drops are charged
	// to the link-queue site; the reference topology is provisioned so
	// they are rare.
	s := &sink{topo: topo, rec: recorder}
	s.wireAccess(routers, ars, aps)
	// Impair discards (the fault injector eating a packet) are final sinks
	// too. The injector is control-only, and control payloads stay off the
	// pool, so today this recycles nothing — it is here so a future
	// data-plane fault config cannot silently leak.
	topo.HookDiscards(s.release)
	// Bandwidth-overhead accounting for the anchor's bicast duplicates.
	agent.OnBicast = func(pkt *inet.Packet) { recorder.BicastDuplicate(pkt) }

	// Staggered beacons: each access point on its own phase.
	for i, ap := range aps {
		ap.StartAdvertising(wireless.Advertisement{Router: routers[i].Addr(), Net: NetPAR + inet.NetID(i)},
			p.RAInterval, rng.Uniform(0, p.RAInterval))
	}

	// Control-plane loss on the access links. The attachment order is fixed
	// so the per-interface fault streams are a pure function of the seed.
	var faults *netsim.FaultInjector
	if p.ControlLossRate > 0 {
		faults = netsim.NewFaultInjector(p.Seed)
		lossy := netsim.FaultConfig{LossRate: p.ControlLossRate, ControlOnly: true}
		for _, l := range apLinks {
			faults.AttachLink(l, lossy)
		}
		for _, l := range neighbours {
			faults.AttachLink(l, lossy)
		}
	}

	return &Testbed{
		Params:   p,
		Engine:   engine,
		Topo:     topo,
		Medium:   medium,
		Recorder: recorder,
		RNG:      rng,
		CN:       cn,
		MAP:      agent,
		Home:     home,
		ARs:      ars,
		APs:      aps,
		PAR:      ars[0],
		NAR:      ars[1],
		APPAR:    aps[0],
		APNAR:    aps[1],
		apLinks:  apLinks,
		sink:     s,
		Faults:   faults,
	}
}

// AddMobileHost creates a mobile host attached to the PAR's access point,
// registered at the MAP, with one CBR flow from the CN per spec. Sources
// are created stopped; call StartTraffic.
func (tb *Testbed) AddMobileHost(motion wireless.Motion, flows []FlowSpec) *MHUnit {
	idx := len(tb.MHs)
	hostID := inet.HostID(10 + idx)
	anchor := tb.MAP
	rcoa := inet.Addr{Net: NetMAP, Host: 1000 + inet.HostID(idx)}
	if tb.Home != nil {
		// Classic deployment: the stable address is the home address and
		// the anchor is the distant home agent.
		anchor = tb.Home
		rcoa = inet.Addr{Net: NetHome, Host: 1000 + inet.HostID(idx)}
	}

	station := wireless.NewStation(fmt.Sprintf("mh%d", idx), tb.Medium, motion, wireless.StationConfig{
		BandwidthBPS:   airBandwidth,
		AirDelay:       sim.Millisecond,
		L2HandoffDelay: tb.Params.L2HandoffDelay,
	})
	mh := core.NewMobileHost(tb.Engine, station, rcoa, anchor.Router().Addr(), core.MHConfig{
		HostID:            hostID,
		Scheme:            tb.Params.Scheme,
		BufferRequest:     tb.Params.BufferRequest,
		AuthKey:           tb.Params.AuthKey,
		Mobility:          tb.Params.Mobility,
		HysteresisDB:      tb.Params.HysteresisDB,
		RetransmitUnacked: tb.Params.ControlLossRate > 0,
	})
	mh.Attach(tb.APPAR, tb.PAR.Addr(), NetPAR)
	tb.PAR.AttachResident(mh.LCoA(), tb.apLinks[0].A())
	anchor.Register(rcoa, mh.LCoA(), 3600*sim.Second)
	mh.StartRegistration()
	tb.sink.wireHost(station, mh, traffic.Sink(tb.Engine, tb.Recorder))

	unit := &MHUnit{MH: mh, Station: station, RCoA: rcoa}
	for _, spec := range flows {
		flowID := tb.Topo.NewFlowID()
		src := traffic.NewCBR(tb.Engine, traffic.CBRConfig{
			Flow:     flowID,
			Class:    spec.Class,
			Src:      tb.CN.Addr(),
			Dst:      rcoa,
			Size:     spec.Size,
			Interval: spec.Interval,
			Alloc:    tb.Topo.AllocPacket,
		}, tb.CN.Send, tb.Topo.NewPacketID, tb.Recorder)
		unit.Sources = append(unit.Sources, src)
		unit.Flows = append(unit.Flows, flowID)
	}
	tb.MHs = append(tb.MHs, unit)
	return unit
}

// StartTraffic starts every CBR source with a small deterministic phase
// stagger so packets from different flows do not collide on the same
// instant.
func (tb *Testbed) StartTraffic() {
	i := 0
	for _, unit := range tb.MHs {
		for _, src := range unit.Sources {
			src.Start(sim.Time(i) * 100 * sim.Microsecond)
			i++
		}
	}
}

// StopTraffic stops every source.
func (tb *Testbed) StopTraffic() {
	for _, unit := range tb.MHs {
		for _, src := range unit.Sources {
			src.Stop()
		}
	}
}

// RunTraffic starts every source, runs to stop, stops the sources and lets
// buffers drain until drain.
func (tb *Testbed) RunTraffic(stop, drain sim.Time) error {
	tb.StartTraffic()
	if err := tb.Engine.Run(stop); err != nil {
		return err
	}
	tb.StopTraffic()
	return tb.Engine.Run(drain)
}

// Run advances the simulation to the given instant.
func (tb *Testbed) Run(until sim.Time) error { return tb.Engine.Run(until) }
