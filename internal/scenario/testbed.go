// Package scenario builds the thesis' simulation scenarios (the Figure 4.1
// hierarchical topology and the Figure 4.11 single-router WLAN) and runs
// one experiment per figure of Chapter 4.
package scenario

import (
	"fmt"
	"strconv"

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

// Validate reports parameters NewTestbed cannot build: a row that is not 2
// to NetMAP−NetPAR routers long, a negative time, an unknown scheme, a
// control loss rate outside [0,1], or a pool and α that core.ARConfig
// rejects. Zero still selects the default everywhere.
func (p Params) Validate() error {
	if most := int(NetMAP - NetPAR); p.Routers < 0 || p.Routers == 1 || p.Routers > most {
		return fmt.Errorf("testbed: a row of %d access routers; it takes 2 to %d (0 selects 2)", p.Routers, most)
	}
	if p.ARLinkDelay < 0 || p.L2HandoffDelay < 0 || p.RAInterval < 0 || p.DrainInterval < 0 || p.HomeAgentDelay < 0 {
		return fmt.Errorf("testbed: negative time: ARLinkDelay %v, L2HandoffDelay %v, RAInterval %v, DrainInterval %v, HomeAgentDelay %v",
			p.ARLinkDelay, p.L2HandoffDelay, p.RAInterval, p.DrainInterval, p.HomeAgentDelay)
	}
	if p.Scheme != 0 && !p.Scheme.Valid() {
		return fmt.Errorf("testbed: unknown scheme %d", p.Scheme)
	}
	if p.ControlLossRate < 0 || p.ControlLossRate > 1 {
		return fmt.Errorf("testbed: control loss rate %g outside [0,1]", p.ControlLossRate)
	}
	if err := (core.ARConfig{PoolSize: p.PoolSize, Alpha: p.Alpha}).Validate(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	return nil
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
	// firstRCoA is the host part of the first mobile host's RCoA; host i
	// gets firstRCoA+i. Station names are mhPrefix followed by i.
	firstRCoA inet.HostID
	mhPrefix  string

	// Faults is the control-plane loss injector, nil unless
	// Params.ControlLossRate is positive.
	Faults *netsim.FaultInjector
}

// NewTestbed assembles the reference topology with no mobile hosts yet. It
// panics with Params.Validate's error on parameters it cannot build.
func NewTestbed(p Params) *Testbed {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	p.applyDefaults()
	engine := p.Engine
	if engine == nil {
		engine = sim.NewEngine()
	} else {
		engine.Reset()
	}
	topo := netsim.NewTopology(engine)

	// The construction order (links, net claims, beacon phases, fault
	// streams) is fixed: it decides every sequence number and random draw.
	cn := netsim.NewHost("cn", inet.Addr{Net: NetCN, Host: 1})
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: NetMAP, Host: 1})
	topo.Connect(cn, mapRouter, netsim.LinkConfig{BandwidthBPS: coreBandwidth, Delay: 2 * sim.Millisecond})
	topo.ClaimNet(NetCN, cn)
	topo.ClaimNet(NetMAP, mapRouter)
	tb := &Testbed{
		Params: p, Engine: engine, Topo: topo, RNG: sim.NewRNG(p.Seed), CN: cn,
		MAP:       mip.NewAgent(engine, mapRouter, mip.AgentConfig{ManagedNet: NetMAP, Alloc: topo.AllocPacket}),
		firstRCoA: 1000, mhPrefix: "mh",
	}
	if p.HomeAgentDelay > 0 {
		haRouter := netsim.NewRouter("ha", inet.Addr{Net: NetHome, Host: 1})
		topo.Connect(mapRouter, haRouter, netsim.LinkConfig{
			BandwidthBPS: coreBandwidth, Delay: p.HomeAgentDelay,
		})
		topo.ClaimNet(NetHome, haRouter)
		tb.Home = mip.NewAgent(engine, haRouter, mip.AgentConfig{ManagedNet: NetHome, Alloc: topo.AllocPacket})
	}
	neighbours := tb.buildRow(NetPAR, func(i int) (string, string) {
		name := fmt.Sprintf("ar%d", i)
		if i < 2 {
			name = [...]string{"par", "nar"}[i]
		}
		return name, "ap-" + name
	}, func(_ int, r *netsim.Router) {
		topo.Connect(mapRouter, r, netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: 2 * sim.Millisecond})
	})
	// Bandwidth-overhead accounting for the anchor's bicast duplicates.
	tb.MAP.OnBicast = tb.Recorder.BicastDuplicate

	// Control-plane loss on the access links. The attachment order is fixed
	// so the per-interface fault streams are a pure function of the seed.
	if p.ControlLossRate > 0 {
		tb.Faults = netsim.NewFaultInjector(p.Seed)
		lossy := netsim.FaultConfig{LossRate: p.ControlLossRate, ControlOnly: true}
		for _, l := range tb.apLinks {
			tb.Faults.AttachLink(l, lossy)
		}
		for _, l := range neighbours {
			tb.Faults.AttachLink(l, lossy)
		}
	}
	return tb
}

// buildRow builds the access network on tb.Engine and tb.Topo, which the
// caller has set up with tb.Params (defaults applied), the beacon stream
// tb.RNG, the correspondent node and the anchor: a row of Params.Routers
// access routers, router i named by name(i) with its access point, owning
// net net0+i and linked to its anchor by uplink(i, router). Neighbours are
// linked directly with ARLinkDelay and access point i sits at i·APDistance.
// Every dead packet of the row goes through one sink, and the beacons start
// on staggered phases. It returns the neighbour links. It never resets the
// engine: a city shard's engine carries many rows.
func (tb *Testbed) buildRow(net0 inet.NetID, name func(i int) (router, ap string),
	uplink func(i int, r *netsim.Router)) []*netsim.Link {
	p, engine, topo := tb.Params, tb.Engine, tb.Topo
	tb.Medium = wireless.NewMedium(engine)
	tb.Recorder = stats.NewRecorder()
	routers := make([]*netsim.Router, p.Routers)
	apNames := make([]string, p.Routers)
	for i := range routers {
		var router string
		router, apNames[i] = name(i)
		routers[i] = netsim.NewRouter(router, inet.Addr{Net: net0 + inet.NetID(i), Host: 1})
		uplink(i, routers[i])
		topo.ClaimNet(net0+inet.NetID(i), routers[i])
	}
	neighbours := make([]*netsim.Link, p.Routers-1)
	for i := range neighbours {
		neighbours[i] = topo.Connect(routers[i], routers[i+1], netsim.LinkConfig{BandwidthBPS: arBandwidth, Delay: p.ARLinkDelay})
	}
	tb.APs = make([]*wireless.AccessPoint, p.Routers)
	tb.apLinks = make([]*netsim.Link, p.Routers)
	for i, r := range routers {
		tb.APs[i] = wireless.NewAccessPoint(apNames[i], tb.Medium, wireless.APConfig{
			Pos: float64(i) * APDistance, Radius: APRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
			ReturnUndeliverable: true,
		})
		tb.apLinks[i] = topo.Connect(r, tb.APs[i], netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})
	}
	if err := topo.ComputeRoutes(); err != nil {
		panic(fmt.Sprintf("scenario: route computation failed: %v", err))
	}
	// Inter-AR traffic (handover signalling and redirected packets) is
	// pinned to the direct neighbour links: the thesis varies the PAR–NAR
	// link's delay specifically, so it must stay on the path even when
	// slower than the detour through the MAP.
	for i, l := range neighbours {
		routers[i].AddPrefixRoute(net0+inet.NetID(i+1), l.A())
		routers[i+1].AddPrefixRoute(net0+inet.NetID(i), l.B())
	}

	dir := core.NewDirectory()
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
	tb.ARs = make([]*core.AccessRouter, p.Routers)
	for i, r := range routers {
		tb.ARs[i] = core.NewAccessRouter(engine, r, net0+inet.NetID(i), dir, arCfg)
		tb.ARs[i].AddAP(tb.APs[i].Name(), tb.apLinks[i].A())
	}
	tb.PAR, tb.NAR, tb.APPAR, tb.APNAR = tb.ARs[0], tb.ARs[1], tb.APs[0], tb.APs[1]

	// Every dead packet goes through the sink. Wired tail drops are charged
	// to the link-queue site; the reference topology is provisioned so
	// they are rare.
	tb.sink = &sink{topo: topo, rec: tb.Recorder}
	tb.sink.wireAccess(routers, tb.ARs, tb.APs)
	// Impair discards (the fault injector eating a packet) are final sinks
	// too. The injector is control-only, and control payloads stay off the
	// pool, so today this recycles nothing — it is here so a future
	// data-plane fault config cannot silently leak.
	topo.HookDiscards(tb.sink.release)

	// Staggered beacons: each access point on its own phase.
	for i, ap := range tb.APs {
		ap.StartAdvertising(wireless.Advertisement{Router: routers[i].Addr(), Net: net0 + inet.NetID(i)},
			p.RAInterval, tb.RNG.Uniform(0, p.RAInterval))
	}
	return neighbours
}

// AddMobileHost creates a mobile host attached to the PAR's access point,
// registered at the MAP, with one CBR flow from the CN per spec. Sources
// are created stopped; call StartTraffic.
func (tb *Testbed) AddMobileHost(motion wireless.Motion, flows []FlowSpec) *MHUnit {
	idx := len(tb.MHs)
	hostID := inet.HostID(10 + idx)
	anchor := tb.MAP
	if tb.Home != nil {
		// Classic deployment: the stable address is the home address and
		// the anchor is the distant home agent.
		anchor = tb.Home
	}
	rcoa := inet.Addr{Net: anchor.Router().Addr().Net, Host: tb.firstRCoA + inet.HostID(idx)}

	station := wireless.NewStation(tb.mhPrefix+strconv.Itoa(idx), tb.Medium, motion, wireless.StationConfig{
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
	mh.Attach(tb.APPAR, tb.PAR.Addr(), tb.PAR.Net())
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
