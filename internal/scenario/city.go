package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The city scenario scales the metro cell out to a whole metropolitan
// deployment: tens of AR domains anchored at a small set of region MAPs.
// Each domain is a testbed row (Testbed.buildRow, the builder NewTestbed
// uses) carrying the metro cell's host wave, and its outcome is the metro
// cell's tally. The topology is partitioned into shards (one sim.Engine
// each) run in parallel under a conservative epoch-barrier protocol whose
// lookahead is the minimum inter-domain wired delay; all MAP-facing links
// cross shard boundaries through netsim.ShardExchange mailboxes.
//
// Every AR domain is self-contained: its correspondent node, routers,
// access points, hosts, and statistics recorder all live on the domain's
// shard, and its packets come from that shard's pool, so a shard never
// touches another shard's state mid-epoch. Only the region MAPs are
// shared, and they are shards of their own (or co-resident with domains,
// balanced by deterministic greedy assignment).

// Network numbering of the city topology. Region MAPs manage
// cityMAPNetBase+r; domain d's correspondent node, PAR, and NAR live on
// cityCNNetBase+d, cityDomainNetBase+2d, and cityDomainNetBase+2d+1.
const (
	cityMAPNetBase    inet.NetID = 50
	cityCNNetBase     inet.NetID = 1000
	cityDomainNetBase inet.NetID = 2000
)

// cityCrossDelay is the one-way delay of every inter-domain (MAP-facing)
// link. It is also the shard group's lookahead: the barrier protocol may
// run each shard cityCrossDelay of virtual time per epoch.
const cityCrossDelay = 5 * sim.Millisecond

// defaultCityShards is the shard count used when CityParams.Shards is
// zero. It is a fixed constant rather than the machine's core count so the
// published tables are byte-identical everywhere.
const defaultCityShards = 8

// cityWorkers resolves the worker count for a sharded city run — the one
// defaulting path shared by applyDefaults and CitySpec. An explicit request
// wins, then fallback; the result is clamped to [1, shards] since more
// workers than shards can never help.
func cityWorkers(requested, shards, fallback int) int {
	w := requested
	if w <= 0 {
		w = fallback
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CityParams configures the sharded city-scale scenario. Zero values
// select the acceptance-scale defaults (50 domains × 2000 hosts).
type CityParams struct {
	// Domains is the number of AR domains (PAR/NAR pairs).
	Domains int
	// HostsPerDomain is how many mobile hosts each domain carries through
	// a staggered PAR→NAR handoff.
	HostsPerDomain int
	// MAPs is the number of region anchors. It is a model parameter,
	// deliberately independent of Shards: a 1-shard and an 8-shard run
	// simulate the identical city.
	MAPs int
	// Shards is the partition size (engines run in parallel). Zero selects
	// 8 (4 for CitySpec). Results depend on the shard count (same-instant
	// tie-breaks differ across partitions) but never on Workers.
	Shards int
	// Workers bounds the goroutines running shards. Zero selects
	// GOMAXPROCS (2 for CitySpec). Any worker count produces
	// byte-identical results.
	Workers int
	// Scheme selects the buffering behaviour on the access routers.
	Scheme core.Scheme
	// PoolSize is each access router's buffer pool in packets.
	PoolSize int
	// BufferRequest is the per-host buffer demand in packets.
	BufferRequest int
	// Alpha is the PAR's best-effort admission threshold.
	Alpha int
	// StaggerWindow overrides the window each domain's handoffs spread
	// over. Zero scales with the host count (metroWindow).
	StaggerWindow sim.Time
	// Seed drives beacon phases (per-domain streams are derived from it).
	Seed int64
	// Engine optionally seeds shard 0 with a reused engine (reset first),
	// so the Monte-Carlo runner keeps a warmed free list per worker.
	Engine *sim.Engine

	// forceSerial, set only by tests, bypasses the shard group and steps
	// the single engine directly — the differential reference proving the
	// one-shard partition is the serial engine.
	forceSerial bool
}

func (p *CityParams) applyDefaults() {
	if p.Domains <= 0 {
		p.Domains = 50
	}
	if p.HostsPerDomain <= 0 {
		p.HostsPerDomain = 2000
	}
	if p.MAPs <= 0 {
		p.MAPs = 2
	}
	if p.MAPs > p.Domains {
		p.MAPs = p.Domains
	}
	if p.Shards <= 0 {
		p.Shards = defaultCityShards
	}
	p.Workers = cityWorkers(p.Workers, p.Shards, runtime.GOMAXPROCS(0))
	if p.Scheme == 0 {
		p.Scheme = core.SchemeEnhanced
	}
	if p.PoolSize <= 0 {
		p.PoolSize = 240
	}
	if p.BufferRequest <= 0 {
		p.BufferRequest = 12
	}
	if p.Alpha == 0 {
		p.Alpha = 2
	}
	if p.StaggerWindow <= 0 {
		p.StaggerWindow = metroWindow(p.HostsPerDomain)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Validate reports parameters RunCity cannot run: a negative count or
// time, an unknown scheme, or a pool and α that core.ARConfig rejects once
// the defaults are applied. Zero still selects the default everywhere.
func (p CityParams) Validate() error {
	if p.Domains < 0 || p.HostsPerDomain < 0 || p.MAPs < 0 || p.Shards < 0 || p.Workers < 0 ||
		p.PoolSize < 0 || p.BufferRequest < 0 {
		return fmt.Errorf("city: negative count: Domains %d, HostsPerDomain %d, MAPs %d, Shards %d, Workers %d, PoolSize %d, BufferRequest %d",
			p.Domains, p.HostsPerDomain, p.MAPs, p.Shards, p.Workers, p.PoolSize, p.BufferRequest)
	}
	if p.StaggerWindow < 0 {
		return fmt.Errorf("city: negative StaggerWindow %v", p.StaggerWindow)
	}
	if p.Scheme != 0 && !p.Scheme.Valid() {
		return fmt.Errorf("city: unknown scheme %d", p.Scheme)
	}
	p.applyDefaults()
	if err := (core.ARConfig{PoolSize: p.PoolSize, Alpha: p.Alpha}).Validate(); err != nil {
		return fmt.Errorf("city: %w", err)
	}
	return nil
}

// cityAssign distributes the region MAPs and the AR domains over shards
// with a deterministic longest-processing-time greedy: heavier units first,
// each to the least-loaded shard, ties to the lowest shard index. The
// assignment is a pure function of (maps, domains, shards) — never of
// worker scheduling — which is half of the determinism contract.
func cityAssign(maps, domains, shards int) (mapShard, domShard []int) {
	type unit struct {
		weight int
		isMAP  bool
		idx    int
	}
	// A MAP serves domains/maps domains but touches only the wired half of
	// each packet's life — measured at about a quarter of a domain's event
	// load per served domain (intercept + tunnel transmit vs. the domain's
	// full CN→AR→air→MH chain).
	mapWeight := domains / (4 * maps)
	if mapWeight < 1 {
		mapWeight = 1
	}
	units := make([]unit, 0, maps+domains)
	for r := 0; r < maps; r++ {
		units = append(units, unit{weight: mapWeight, isMAP: true, idx: r})
	}
	for d := 0; d < domains; d++ {
		units = append(units, unit{weight: 1, idx: d})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].weight > units[j].weight })

	load := make([]int, shards)
	mapShard = make([]int, maps)
	domShard = make([]int, domains)
	for _, u := range units {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += u.weight
		if u.isMAP {
			mapShard[u.idx] = best
		} else {
			domShard[u.idx] = best
		}
	}
	return mapShard, domShard
}

// cityMAP is one region anchor: a MAP agent with its own topology (on its
// shard's packet pool) and recorder, all owned by its shard.
type cityMAP struct {
	shard    int
	engine   *sim.Engine
	topo     *netsim.Topology
	router   *netsim.Router
	agent    *mip.Agent
	recorder *stats.Recorder
	net      inet.NetID
}

// cityDomain is one AR domain: a testbed row on its shard's engine and
// packet pool, anchored at a region MAP (tb.MAP) across the shard boundary.
type cityDomain struct {
	shard int
	tb    *Testbed
	// wired holds every wired link of the domain, indexed by cityLinkRoles,
	// for the utilization rollup.
	wired [len(cityLinkRoles)]*netsim.Link
}

// cityLinkRoles names the wired link roles of one AR domain, in render
// order: the three MAP-facing (usually cross-shard) links, the direct
// PAR–NAR link, and the two router–AP links.
var cityLinkRoles = [...]string{"cn-map", "par-map", "nar-map", "par-nar", "par-ap", "nar-ap"}

// city is the assembled partitioned topology.
type city struct {
	params   CityParams
	engines  []*sim.Engine
	exchange *netsim.ShardExchange
	group    *sim.ShardGroup
	maps     []*cityMAP
	domains  []*cityDomain
}

// newCity builds the partitioned topology. Construction is single-threaded
// and ordered (MAPs, then per domain its beacons and its hosts), so every
// engine's event sequence numbers — and hence the whole run — are a pure
// function of the parameters.
func newCity(p CityParams) *city {
	mapShard, domShard := cityAssign(p.MAPs, p.Domains, p.Shards)

	engines := make([]*sim.Engine, p.Shards)
	for s := range engines {
		if s == 0 && p.Engine != nil {
			p.Engine.Reset()
			engines[s] = p.Engine
			continue
		}
		engines[s] = sim.NewEngine()
	}
	c := &city{params: p, engines: engines, exchange: netsim.NewShardExchange(engines...)}

	for r := 0; r < p.MAPs; r++ {
		engine := engines[mapShard[r]]
		topo := netsim.NewTopologyWithPool(engine, c.exchange.Pool(engine))
		net := cityMAPNetBase + inet.NetID(r)
		router := netsim.NewRouter(fmt.Sprintf("map%d", r), inet.Addr{Net: net, Host: 1})
		recorder := stats.NewRecorder()
		agent := mip.NewAgent(engine, router, mip.AgentConfig{
			ManagedNet: net,
			Alloc:      topo.AllocPacket,
		})
		agent.OnBicast = func(pkt *inet.Packet) { recorder.BicastDuplicate(pkt) }
		c.maps = append(c.maps, &cityMAP{
			shard: mapShard[r], engine: engine, topo: topo, router: router,
			agent: agent, recorder: recorder, net: net,
		})
	}

	for d := 0; d < p.Domains; d++ {
		// RCoAs are city-unique: 1001, 1002, … across all domains.
		dom := c.newDomain(d, domShard[d], c.maps[d*p.MAPs/p.Domains], inet.HostID(1001+d*p.HostsPerDomain))
		addHostWave(dom.tb, p.HostsPerDomain, p.StaggerWindow)
		c.domains = append(c.domains, dom)
	}

	lookahead := c.exchange.Lookahead()
	if lookahead == 0 {
		lookahead = cityCrossDelay // single shard: no cross links exist
	}
	c.group = sim.NewShardGroup(engines, lookahead, p.Workers)
	c.group.SetExchange(c.exchange)
	return c
}

// newDomain builds AR domain d on its shard: a testbed row whose
// correspondent node and access routers face the region MAP over links
// that cross the shard boundary (plain links when the assignment
// co-located them — ShardExchange.Connect decides). Its hosts' RCoAs start
// at firstRCoA.
func (c *city) newDomain(d, shard int, anchor *cityMAP, firstRCoA inet.HostID) *cityDomain {
	p := c.params
	engine := c.engines[shard]
	cnNet := cityCNNetBase + inet.NetID(d)
	tb := &Testbed{
		Params: Params{Scheme: p.Scheme, PoolSize: p.PoolSize, Alpha: p.Alpha, BufferRequest: p.BufferRequest},
		Engine: engine,
		Topo:   netsim.NewTopologyWithPool(engine, c.exchange.Pool(engine)),
		RNG:    sim.NewRNG(p.Seed + int64(d)*1_000_003),
		CN:     netsim.NewHost(fmt.Sprintf("cn%d", d), inet.Addr{Net: cnNet, Host: 1}),
		MAP:    anchor.agent,

		firstRCoA: firstRCoA,
		mhPrefix:  fmt.Sprintf("mh%d-", d),
	}
	tb.Params.applyDefaults()
	dom := &cityDomain{shard: shard, tb: tb}
	up := func(n netsim.Node, bandwidth int64) *netsim.Link {
		return c.exchange.Connect(engine, anchor.engine, n, anchor.router,
			netsim.LinkConfig{BandwidthBPS: bandwidth, Delay: cityCrossDelay})
	}
	// The CN's link comes first: the exchange flushes its ports in
	// creation order.
	dom.wired[0] = up(tb.CN, coreBandwidth)
	anchor.router.AddPrefixRoute(cnNet, dom.wired[0].B())
	neighbours := tb.buildRow(cityDomainNetBase+inet.NetID(2*d), func(i int) (string, string) {
		role := [...]string{"par", "nar"}[i]
		return fmt.Sprintf("%s%d", role, d), fmt.Sprintf("ap%d-%s", d, role)
	}, func(i int, r *netsim.Router) {
		// Domain side: everything non-local goes up to the MAP; MAP side:
		// a downlink route per domain net.
		l := up(r, arBandwidth)
		r.AddPrefixRoute(anchor.net, l.A())
		r.AddPrefixRoute(cnNet, l.A())
		anchor.router.AddPrefixRoute(r.Addr().Net, l.B())
		dom.wired[1+i] = l
	})
	dom.wired[3], dom.wired[4], dom.wired[5] = neighbours[0], tb.apLinks[0], tb.apLinks[1]

	// Tail drops on the domain side of the cross links are charged to the
	// domain's recorder (the sending event runs on this shard); the MAP
	// side's belong to the MAP's recorder.
	domainDrop := tb.sink.at(stats.SiteLinkQueue)
	mapDrop := (&sink{topo: anchor.topo, rec: anchor.recorder}).at(stats.SiteLinkQueue)
	for _, l := range dom.wired[:3] {
		l.A().DropHook = domainDrop
		l.B().DropHook = mapDrop
	}
	return dom
}

// run advances the whole city through the handoff window and the
// post-traffic drain.
func (c *city) run() error {
	p := c.params
	horizon := p.StaggerWindow + 12*sim.Second
	drain := horizon + core.DefaultSessionLifetime + 2*sim.Second
	if p.forceSerial {
		if len(c.engines) != 1 {
			panic("city: forceSerial needs a single shard")
		}
		if err := c.engines[0].Run(horizon); err != nil {
			return err
		}
		c.stopTraffic()
		return c.engines[0].Run(drain)
	}
	if err := c.group.Run(horizon); err != nil {
		return err
	}
	c.stopTraffic()
	return c.group.Run(drain)
}

// stopTraffic stops every source. It runs between group.Run calls, with
// every shard parked at the barrier.
func (c *city) stopTraffic() {
	for _, dom := range c.domains {
		dom.tb.StopTraffic()
	}
}

// CityDomainRow is one domain's outcome (deterministic for a fixed shard
// count, independent of worker count).
type CityDomainRow struct {
	Domain       int
	Shard        int
	Handoffs     int
	Grants       uint64
	Refusals     uint64
	PeakNAR      int
	PeakPAR      int
	Lost         [3]uint64
	MaxDelayMs   float64
	MeanDelayMs  float64
	SessionsLeft int
}

// CityResult aggregates the city run. Every field except Wall is
// deterministic for a fixed shard count; Render deliberately excludes Wall
// so the rendered output is byte-identical across worker counts.
type CityResult struct {
	Params  CityParams
	Rows    []CityDomainRow
	Shards  int
	Workers int
	// CrossPorts counts mailbox directions (0 when the partition is a
	// single shard: the run is literally the serial engine).
	CrossPorts int
	// Events is the total number of events fired across all shards;
	// ShardEvents breaks it down per shard. Both are deterministic for a
	// fixed shard count, so they are part of the golden output — and the
	// per-shard spread is the partition balance the assignment achieved.
	Events      uint64
	ShardEvents []uint64
	// Links aggregates wired-link utilization per role (both directions of
	// every domain's link with that role summed): packets accepted into the
	// transmit queue, packets handed to the far node, and tail drops.
	// Deterministic for a fixed shard count — and reconstructed lazily
	// from the links' departure rings rather than counted by events, so it
	// renders into the golden output as the observable check on that
	// reconstruction.
	Links []CityLinkUse
	// Air aggregates the radio data plane across all domains: downlink
	// frames the APs serialized onto the air and dropped undeliverable,
	// uplink frames the stations serialized and discarded. They are
	// reconstructed lazily from the radios' departure rings rather than
	// counted by events, so they render into the golden output as the
	// observable check on that reconstruction.
	AirDownSent  uint64
	AirDownDrops uint64
	AirUpSent    uint64
	AirUpDrops   uint64
	// Barrier holds the shard group's synchronization counters and
	// Flushes/ElidedFlushes the exchange's — all pure functions of the
	// model for a fixed shard count and epoch mode, so they render into
	// the golden output: a regression in barrier efficiency shows up as a
	// golden diff. A single-shard partition never enters the round loop,
	// so Barrier and Flushes are zero there; ElidedFlushes is 2, the empty
	// flush each of the run's two ShardGroup.Run calls (traffic, then
	// drain) makes before running the lone engine serially.
	Barrier       sim.ShardStats
	Flushes       uint64
	ElidedFlushes uint64
	// Pools holds each shard's packet-pool counters at the end of the run,
	// in shard order. Σ(Gets−Puts) is the number of packets never
	// reclaimed and, like every count, is deterministic for a fixed shard
	// count; Fresh and Len measure the simulator's own memory and are not
	// rendered.
	Pools []inet.PoolStats
	// Aggregates over all domains.
	Handoffs     int
	Grants       uint64
	Refusals     uint64
	Lost         [3]uint64
	MaxDelayMs   float64
	MeanDelayMs  float64
	SessionsLeft int
	DedupMH      uint64
	DedupNAR     uint64
	DupPackets   uint64
	DupBytes     uint64
	TotalSent    uint64
	// Wall is the host-clock duration of the run — the only
	// nondeterministic field, reported by benchmarks, never by Render.
	Wall time.Duration
}

// CityLinkUse is one wired-link role's aggregate utilization across all
// domains.
type CityLinkUse struct {
	Role      string
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

// RunCity builds and runs the sharded city scenario.
func RunCity(p CityParams) CityResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	p.applyDefaults()
	c := newCity(p)
	start := time.Now()
	if err := c.run(); err != nil {
		panic(fmt.Sprintf("city: %v", err))
	}
	wall := time.Since(start)
	res := c.result()
	res.Wall = wall
	return res
}

// result reads the finished run: the engines' and the exchange's counters,
// the wired and air rollups, and one tally row per domain.
func (c *city) result() CityResult {
	p := c.params
	res := CityResult{
		Params:     p,
		Shards:     p.Shards,
		Workers:    p.Workers,
		CrossPorts: c.exchange.Ports(),
	}
	for _, e := range c.engines {
		res.Events += e.Processed()
		res.ShardEvents = append(res.ShardEvents, e.Processed())
	}
	res.Barrier = c.group.Stats()
	res.Flushes = c.exchange.Flushes()
	res.ElidedFlushes = c.exchange.ElidedFlushes()
	res.Pools = c.exchange.PoolStats()
	res.Links = make([]CityLinkUse, len(cityLinkRoles))
	for i, role := range cityLinkRoles {
		res.Links[i].Role = role
	}
	for _, dom := range c.domains {
		for i, l := range dom.wired {
			for _, ifc := range [...]*netsim.Iface{l.A(), l.B()} {
				res.Links[i].Sent += ifc.Sent()
				res.Links[i].Delivered += ifc.Delivers()
				res.Links[i].Dropped += ifc.Dropped()
			}
		}
	}
	var meanSum float64
	var meanN int
	for d, dom := range c.domains {
		cell, delaySum, delayed := dom.tb.tally()
		row := CityDomainRow{
			Domain:       d,
			Shard:        dom.shard,
			Handoffs:     cell.Handoffs,
			Grants:       cell.Grants,
			Refusals:     cell.Refusals,
			PeakNAR:      cell.PeakNAR,
			PeakPAR:      cell.PeakPAR,
			Lost:         cell.Lost,
			MaxDelayMs:   cell.MaxDelayMs,
			MeanDelayMs:  cell.MeanDelayMs,
			SessionsLeft: cell.SessionsLeft,
		}
		meanSum += delaySum
		meanN += delayed
		for _, ap := range dom.tb.APs {
			res.AirDownSent += ap.Sent()
			res.AirDownDrops += ap.AirDrops()
		}
		for _, unit := range dom.tb.MHs {
			res.AirUpSent += unit.Station.Sent()
			res.AirUpDrops += unit.Station.TxDrops()
		}

		res.Rows = append(res.Rows, row)
		res.Handoffs += row.Handoffs
		res.Grants += row.Grants
		res.Refusals += row.Refusals
		for k := range row.Lost {
			res.Lost[k] += row.Lost[k]
		}
		if row.MaxDelayMs > res.MaxDelayMs {
			res.MaxDelayMs = row.MaxDelayMs
		}
		res.SessionsLeft += row.SessionsLeft
		res.DedupMH += cell.DedupMH
		res.DedupNAR += cell.DedupNAR
		res.TotalSent += cell.TotalSent
	}
	if meanN > 0 {
		res.MeanDelayMs = meanSum / float64(meanN)
	}
	for _, m := range c.maps {
		res.DupPackets += m.recorder.DupPackets()
		res.DupBytes += m.recorder.DupBytes()
	}
	return res
}

// Render prints the deterministic city summary: configuration, aggregate
// outcome, and a compact per-shard domain map. Wall-clock timing is
// deliberately absent (see CityResult.Wall).
func (r CityResult) Render() string {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("City-scale handoff wave: %d AR domains × %d hosts, %d region MAP(s), %d shard(s)\n",
		r.Params.Domains, r.Params.HostsPerDomain, r.Params.MAPs, r.Shards)
	app("scheme=%v pool=%d/router request=%d window=%v lookahead=%v crossPorts=%d\n\n",
		r.Params.Scheme, r.Params.PoolSize, r.Params.BufferRequest,
		r.Params.StaggerWindow, cityCrossDelay, r.CrossPorts)
	app("%10s%10s%10s%9s%9s%9s%9s%10s%12s%10s\n",
		"handoffs", "grants", "refused", "lostRT", "lostHP", "lostBE",
		"maxdelay", "meandelay", "sessleft", "events")
	app("%10d%10d%10d%9d%9d%9d%8.0fms%8.2fms%12d%10d\n\n",
		r.Handoffs, r.Grants, r.Refusals, r.Lost[0], r.Lost[1], r.Lost[2],
		r.MaxDelayMs, r.MeanDelayMs, r.SessionsLeft, r.Events)
	// Per-shard rollup: how the deterministic assignment spread the load.
	perShard := make(map[int]int)
	for _, row := range r.Rows {
		perShard[row.Shard]++
	}
	app("domains per shard:")
	for s := 0; s < r.Shards; s++ {
		app(" s%d=%d", s, perShard[s])
	}
	app("\nevents per shard: ")
	for s, n := range r.ShardEvents {
		if s > 0 {
			app(" ")
		}
		app("%d", n)
	}
	app("\n")
	// Wired-link utilization per role, both directions of every domain's
	// link summed. Delivered lags sent by whatever was still in flight or
	// queued when the run's horizon fell.
	app("link utilization (all domains, both directions):\n")
	for _, lu := range r.Links {
		app("%10s%12d sent%12d delivered%10d dropped\n",
			lu.Role, lu.Sent, lu.Delivered, lu.Dropped)
	}
	// Radio data plane, all domains summed (reconstructed from the radios'
	// departure rings).
	app("air: downlink %d sent %d dropped, uplink %d sent %d dropped\n",
		r.AirDownSent, r.AirDownDrops, r.AirUpSent, r.AirUpDrops)
	// Barrier efficiency (absent for a single shard, where the run is the
	// serial engine and the counters are all zero by construction).
	if r.Shards > 1 {
		app("barrier: rounds=%d sync=%d solo=%d dispatched=%d elided=%d flushes=%d elidedFlushes=%d\n",
			r.Barrier.Rounds, r.Barrier.BarrierRounds, r.Barrier.SoloRounds,
			r.Barrier.Dispatches, r.Barrier.ElidedDispatches,
			r.Flushes, r.ElidedFlushes)
	}
	return string(b)
}

// WriteCSV emits one row per domain.
func (r CityResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "domain,shard,handoffs,grants,refusals,peak_nar,peak_par,"+
		"lost_rt,lost_hp,lost_be,max_delay_ms,mean_delay_ms,sessions_left"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%d\n",
			row.Domain, row.Shard, row.Handoffs, row.Grants, row.Refusals,
			row.PeakNAR, row.PeakPAR, row.Lost[0], row.Lost[1], row.Lost[2],
			row.MaxDelayMs, row.MeanDelayMs, row.SessionsLeft); err != nil {
			return err
		}
	}
	return nil
}

// CitySpec wraps a reduced city (the full 100k-host sweep is the -fig
// path; replicas need seconds, not minutes) as a seedable runner spec.
func CitySpec(p CityParams) runner.Spec {
	if p.Domains == 0 {
		p.Domains = 8
	}
	if p.HostsPerDomain == 0 {
		p.HostsPerDomain = 100
	}
	if p.Shards == 0 {
		p.Shards = 4
	}
	// Runner replicas already run concurrently, so the per-run shard
	// parallelism defaults low (2) rather than to GOMAXPROCS.
	p.Workers = cityWorkers(p.Workers, p.Shards, 2)
	d := p
	d.applyDefaults()
	return scratchSpec{
		name: "city",
		desc: fmt.Sprintf("sharded city handoff wave: %d domains × %d hosts on %d shards",
			d.Domains, d.HostsPerDomain, d.Shards),
		run: func(engine *sim.Engine, seed int64) Result {
			p := p
			p.Seed, p.Engine = seed, engine
			return RunCity(p)
		}}
}

// Metrics reports the city's totals.
func (r CityResult) Metrics() runner.Metrics {
	m := runner.Metrics{
		"handoffs":      float64(r.Handoffs),
		"grants":        float64(r.Grants),
		"refusals":      float64(r.Refusals),
		"max_delay_ms":  r.MaxDelayMs,
		"mean_delay_ms": r.MeanDelayMs,
		"sessions_left": float64(r.SessionsLeft),
		"events":        float64(r.Events),
	}
	for k, suffix := range classSuffix {
		m["lost_"+suffix] = float64(r.Lost[k])
	}
	return m
}
