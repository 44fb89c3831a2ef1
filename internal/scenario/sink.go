package scenario

import (
	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// sink is where every dead packet of one topology goes: it charges the
// drop to the recorder, then returns the packet's UDP chain to the pool.
// The testbed, the WLAN testbed and the city domains install all their
// drop, no-route, duplicate and tunnel-release hooks through one. The
// hooks hold a pointer to it, so each costs no more than a hand-written
// closure over the topology.
type sink struct {
	topo *netsim.Topology
	rec  *stats.Recorder
}

// release recycles a dead UDP data packet, and any tunnel wrappers around
// it, into the topology's pool; the reclaim is deferred one event, so hooks
// chained after this one (tracing) still read the packet intact. Control
// payloads stay off the pool so retransmission bookkeeping can never meet a
// recycled struct, and TCP is left to the garbage collector. A city shard
// releases into its own pool even the anchor's wrappers born on another;
// the exchange moves free packets back at the barrier, so this is
// race-free.
func (s *sink) release(pkt *inet.Packet) {
	if pkt.Innermost().Proto != inet.ProtoUDP {
		return
	}
	for p := pkt; p != nil; p = p.Inner {
		s.topo.ReleasePacket(p)
	}
}

// at returns a drop hook that charges data (not control) packets to site,
// then releases them.
func (s *sink) at(site stats.DropSite) func(pkt *inet.Packet) {
	return func(pkt *inet.Packet) {
		if pkt.Innermost().Proto != inet.ProtoControl {
			s.rec.DroppedSite(pkt, site)
		}
		s.release(pkt)
	}
}

// wireAccess installs the sink on an access network: the routers' no-route
// drops, the access routers' buffer drops and SafetyNet discards, the
// access points' air drops, and the tail drops of every link connected so
// far (call it once they all are).
func (s *sink) wireAccess(routers []*netsim.Router, ars []*core.AccessRouter, aps []*wireless.AccessPoint) {
	// No-route drops are tunnels to a host's old care-of address that
	// arrive after its handoff session ended. The flow already counts them
	// as lost, so they are recycled without charging a drop site.
	for _, r := range routers {
		r.NoRoute = s.release
	}
	for _, ar := range ars {
		ar.OnDrop = func(pkt *inet.Packet, where string) {
			s.rec.Dropped(pkt, where)
			s.release(pkt)
		}
		// SafetyNet: discarded hold-window copies are dedup events, not
		// losses — count them and recycle the chain.
		ar.OnBicastDiscard = func(pkt *inet.Packet) {
			s.rec.DedupDiscardNAR()
			s.release(pkt)
		}
	}
	air := s.at(stats.SiteAir)
	for _, ap := range aps {
		ap.AirDropHook = air
	}
	s.topo.HookDrops(s.at(stats.SiteLinkQueue))
}

// wireHost installs the sink on a mobile host: its station's uplink drops
// (mirroring the access points' air drops), its deliveries (handed to
// deliver first), the tunnel wrappers it strips and the redundant bicast
// copies its dedup window suppresses.
func (s *sink) wireHost(station *wireless.Station, mh *core.MobileHost, deliver func(pkt *inet.Packet)) {
	station.TxDropHook = s.at(stats.SiteAirUplink)
	mh.OnDeliver = func(pkt *inet.Packet) {
		deliver(pkt)
		s.release(pkt)
	}
	mh.ReleaseTunnel = func(outer, inner *inet.Packet) {
		for p := outer; p != nil && p != inner; p = p.Inner {
			s.topo.ReleasePacket(p)
		}
	}
	mh.OnDuplicate = func(pkt *inet.Packet) {
		s.rec.DedupDiscardMH()
		s.release(pkt)
	}
}
