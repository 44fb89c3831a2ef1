package netsim

import (
	"repro/internal/inet"
)

// Router is a generic packet forwarder. Specialized routers (access
// routers, the MAP, the home agent) are built on top of it through the
// Intercept and LocalDeliver hooks rather than by embedding, so that the
// protocol engines stay decoupled from the forwarding plane.
type Router struct {
	name   string
	addr   inet.Addr
	ifaces []*Iface

	// The routing tables are dense address tables (DESIGN.md "Per-packet
	// lookups"): Route costs a row scan and an array load per table.
	prefixRoutes inet.NetTable[*Iface]
	hostRoutes   inet.AddrTable[*Iface]

	// Intercept is consulted for every packet before normal forwarding.
	// Returning true means the hook consumed the packet. The fast-handover
	// engines use this to redirect and buffer packets mid-handoff.
	Intercept func(in *Iface, pkt *inet.Packet) bool

	// LocalDeliver handles packets addressed to the router itself (control
	// messages, tunnel endpoints). Tunnel packets terminating here are
	// decapsulated and re-forwarded automatically unless LocalDeliver
	// consumes them first by returning true.
	LocalDeliver func(in *Iface, pkt *inet.Packet) bool

	// NoRoute, when set, receives every packet Forward drops for lack of a
	// route, after the drop is counted, so the owner can recycle it.
	NoRoute func(pkt *inet.Packet)

	noRoute uint64
}

// NewRouter creates a router with the given name and its own address.
func NewRouter(name string, addr inet.Addr) *Router {
	return &Router{name: name, addr: addr}
}

// Name implements Node.
func (r *Router) Name() string { return r.name }

// Addr returns the router's own address.
func (r *Router) Addr() inet.Addr { return r.addr }

// Ifaces returns the router's interfaces in attachment order.
func (r *Router) Ifaces() []*Iface { return r.ifaces }

// NoRouteDrops returns the number of packets dropped for lack of a route.
func (r *Router) NoRouteDrops() uint64 { return r.noRoute }

// AttachIface implements IfaceAttacher.
func (r *Router) AttachIface(ifc *Iface) { r.ifaces = append(r.ifaces, ifc) }

// AddPrefixRoute installs (or replaces) the next-hop interface for a
// network.
func (r *Router) AddPrefixRoute(n inet.NetID, via *Iface) { r.prefixRoutes.Set(n, via) }

// AddHostRoute installs (or replaces) a host-specific route, which takes
// precedence over prefix routes. Fast handover uses host routes at the NAR
// for the mobile host's previous care-of address.
func (r *Router) AddHostRoute(a inet.Addr, via *Iface) { r.hostRoutes.Set(a, via) }

// RemoveHostRoute deletes a host route.
func (r *Router) RemoveHostRoute(a inet.Addr) { r.hostRoutes.Delete(a) }

// Route returns the forwarding interface for dst, or nil if none.
func (r *Router) Route(dst inet.Addr) *Iface {
	if via, ok := r.hostRoutes.Get(dst); ok {
		return via
	}
	via, _ := r.prefixRoutes.Get(dst.Net)
	return via
}

// HandlePacket implements Node.
func (r *Router) HandlePacket(in *Iface, pkt *inet.Packet) {
	if r.Intercept != nil && r.Intercept(in, pkt) {
		return
	}
	if pkt.Dst == r.addr {
		if r.LocalDeliver != nil && r.LocalDeliver(in, pkt) {
			return
		}
		// A tunnel terminating here: decapsulate and forward the inner
		// packet as if it had just arrived.
		if inner := pkt.Decapsulate(); inner != nil {
			r.HandlePacket(in, inner)
		}
		return
	}
	r.Forward(pkt)
}

// Forward sends pkt toward its destination using the routing tables,
// counting a drop (and handing the packet to NoRoute) when no route exists.
func (r *Router) Forward(pkt *inet.Packet) {
	via := r.Route(pkt.Dst)
	if via == nil {
		r.noRoute++
		if r.NoRoute != nil {
			r.NoRoute(pkt)
		}
		return
	}
	via.Send(pkt)
}

// SendFrom originates a packet at this router (control traffic sourced by
// the router itself).
func (r *Router) SendFrom(pkt *inet.Packet) { r.Forward(pkt) }
