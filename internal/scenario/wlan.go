package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/wireless"
)

// NetWLAN is the single subnet of the Figure 4.11 topology.
const NetWLAN inet.NetID = 5

// Geometry of the Figure 4.11 topology: two access points under one access
// router, 100 m apart with 70 m radius (40 m overlap), host at 10 m/s.
const (
	WLANAPDistance = 100.0
	WLANAPRadius   = 70.0
)

// WLANParams configures the Figure 4.11 testbed.
type WLANParams struct {
	// Buffered selects the proposed §3.2.2.4 buffering; false reproduces
	// the plain link-layer handoff (Figure 4.12).
	Buffered bool
	// PoolSize is the router's buffer pool; zero selects 200 packets,
	// ample for one TCP window.
	PoolSize int
	// Alpha is the best-effort admission threshold.
	Alpha int
	// BufferRequest is the BI size; zero selects the pool size.
	BufferRequest int
	// L2HandoffDelay is the blackout (200 ms in the thesis).
	L2HandoffDelay sim.Time
	// RAInterval is the beacon period.
	RAInterval sim.Time
	// MSS is the TCP segment payload size.
	MSS int
	// NewReno enables partial-ACK recovery in the sender (ablation; the
	// thesis simulated classic Reno).
	NewReno bool
	// TransferBytes bounds the FTP transfer (zero: unlimited).
	TransferBytes uint64
	// ThroughputWindow buckets the Figure 4.14 goodput series. Zero
	// selects 100 ms.
	ThroughputWindow sim.Time
	// Seed drives beacon phases.
	Seed int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

func (p *WLANParams) applyDefaults() {
	if p.PoolSize == 0 {
		p.PoolSize = 200
	}
	if p.BufferRequest == 0 {
		p.BufferRequest = p.PoolSize
	}
	if p.L2HandoffDelay == 0 {
		p.L2HandoffDelay = 200 * sim.Millisecond
	}
	if p.RAInterval == 0 {
		p.RAInterval = 500 * sim.Millisecond
	}
	if p.MSS == 0 {
		p.MSS = tcp.DefaultMSS
	}
	if p.ThroughputWindow == 0 {
		p.ThroughputWindow = 100 * sim.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// WLANTestbed is the assembled Figure 4.11 network with one FTP/TCP
// connection from the wired correspondent node to the mobile host.
type WLANTestbed struct {
	Params   WLANParams
	Engine   *sim.Engine
	Topo     *netsim.Topology
	Medium   *wireless.Medium
	Recorder *stats.Recorder

	CN       *netsim.Host
	AR       *core.AccessRouter
	AP1, AP2 *wireless.AccessPoint
	MH       *core.MobileHost
	Station  *wireless.Station
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
}

// NewWLANTestbed assembles the topology. The mobile host walks from inside
// AP1's cell through the overlap into AP2's cell; with the default motion
// the handover triggers around t ≈ 11.5 s, matching Figure 4.12.
func NewWLANTestbed(p WLANParams) *WLANTestbed {
	p.applyDefaults()
	engine := p.Engine
	if engine == nil {
		engine = sim.NewEngine()
	} else {
		engine.Reset()
	}
	topo := netsim.NewTopology(engine)
	medium := wireless.NewMedium(engine)
	rng := sim.NewRNG(p.Seed)
	recorder := stats.NewRecorder()

	cn := netsim.NewHost("cn", inet.Addr{Net: NetCN, Host: 1})
	arRouter := netsim.NewRouter("ar", inet.Addr{Net: NetWLAN, Host: 1})
	topo.Connect(cn, arRouter, netsim.LinkConfig{BandwidthBPS: coreBandwidth, Delay: 2 * sim.Millisecond})

	ap1 := wireless.NewAccessPoint("ap1", medium, wireless.APConfig{
		Pos: 0, Radius: WLANAPRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
		ReturnUndeliverable: true,
	})
	ap2 := wireless.NewAccessPoint("ap2", medium, wireless.APConfig{
		Pos: WLANAPDistance, Radius: WLANAPRadius, BandwidthBPS: airBandwidth, AirDelay: sim.Millisecond,
		ReturnUndeliverable: true,
	})
	ap1Link := topo.Connect(arRouter, ap1, netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})
	ap2Link := topo.Connect(arRouter, ap2, netsim.LinkConfig{BandwidthBPS: apBandwidth, Delay: sim.Millisecond / 2})

	topo.ClaimNet(NetCN, cn)
	topo.ClaimNet(NetWLAN, arRouter)
	if err := topo.ComputeRoutes(); err != nil {
		panic(fmt.Sprintf("scenario: route computation failed: %v", err))
	}

	dir := core.NewDirectory()
	ar := core.NewAccessRouter(engine, arRouter, NetWLAN, dir, core.ARConfig{
		Scheme:   core.SchemeEnhanced,
		PoolSize: p.PoolSize,
		Alpha:    p.Alpha,
	})
	ar.AddAP("ap1", ap1Link.A())
	ar.AddAP("ap2", ap2Link.A())
	// The network pools nothing and carries only TCP and control packets,
	// which the sink charges but never releases.
	s := &sink{topo: topo, rec: recorder}
	s.wireAccess([]*netsim.Router{arRouter}, []*core.AccessRouter{ar}, []*wireless.AccessPoint{ap1, ap2})

	ap1.StartAdvertising(wireless.Advertisement{Router: arRouter.Addr(), Net: NetWLAN},
		p.RAInterval, rng.Uniform(0, p.RAInterval))
	ap2.StartAdvertising(wireless.Advertisement{Router: arRouter.Addr(), Net: NetWLAN},
		p.RAInterval, rng.Uniform(0, p.RAInterval))

	// The host enters the overlap (x=30) at t≈9.4 s and passes the
	// midpoint (x=50, where AP2 becomes closer) at t≈11.4 s.
	station := wireless.NewStation("mh", medium, wireless.Linear{Start: -64, Speed: MHSpeed},
		wireless.StationConfig{
			BandwidthBPS:   airBandwidth,
			AirDelay:       sim.Millisecond,
			L2HandoffDelay: p.L2HandoffDelay,
		})
	bufReq := 0
	if p.Buffered {
		bufReq = p.BufferRequest
	}
	mh := core.NewMobileHost(engine, station, inet.Unspecified, inet.Unspecified, core.MHConfig{
		HostID:        7,
		Scheme:        core.SchemeEnhanced,
		BufferRequest: bufReq,
	})
	mh.Attach(ap1, ar.Addr(), NetWLAN)
	ar.AttachResident(mh.LCoA(), ap1Link.A())

	flow := topo.NewFlowID()
	sender := tcp.NewSender(engine, tcp.SenderConfig{
		Src:        cn.Addr(),
		Dst:        mh.LCoA(),
		Flow:       flow,
		MSS:        p.MSS,
		NewReno:    p.NewReno,
		LimitBytes: p.TransferBytes,
	}, cn.Send, topo.NewPacketID)
	receiver := tcp.NewReceiver(engine, mh.LCoA(), cn.Addr(), flow,
		mh.SendData, p.ThroughputWindow)

	cn.Receive = func(pkt *inet.Packet) {
		if seg, ok := pkt.Payload.(*tcp.Segment); ok {
			sender.HandleAck(seg)
		}
	}
	s.wireHost(station, mh, func(pkt *inet.Packet) {
		if seg, ok := pkt.Payload.(*tcp.Segment); ok {
			receiver.Handle(seg)
		}
	})

	return &WLANTestbed{
		Params:   p,
		Engine:   engine,
		Topo:     topo,
		Medium:   medium,
		Recorder: recorder,
		CN:       cn,
		AR:       ar,
		AP1:      ap1,
		AP2:      ap2,
		MH:       mh,
		Station:  station,
		Sender:   sender,
		Receiver: receiver,
	}
}

// Run starts the transfer and advances the simulation to the horizon.
func (tb *WLANTestbed) Run(until sim.Time) error {
	tb.Sender.Start()
	err := tb.Engine.Run(until)
	tb.Sender.Stop()
	return err
}
