package inet

import (
	"fmt"

	"repro/internal/sim"
)

// Proto distinguishes the payload kinds the simulator carries.
type Proto uint8

const (
	// ProtoUDP is connectionless application data (the CBR audio flows).
	ProtoUDP Proto = iota + 1
	// ProtoTCP carries a TCP segment in the payload.
	ProtoTCP
	// ProtoControl carries a mobility/handover control message.
	ProtoControl
	// ProtoTunnel is an IP-in-IP encapsulation header; the real packet is
	// in Inner.
	ProtoTunnel
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	case ProtoControl:
		return "control"
	case ProtoTunnel:
		return "tunnel"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TunnelHeaderSize is the per-encapsulation byte overhead, matching the
// size of the compact header modelled here (an IPv6 outer header).
const TunnelHeaderSize = 40

// Packet is the unit of transmission. Packets are passed by pointer and
// must not be shared between links; forwarding elements that duplicate a
// packet must Clone it.
type Packet struct {
	// ID is unique within a simulation run (assigned by the topology's
	// packet counter).
	ID uint64
	// Src and Dst are the network-layer endpoints of this header. For a
	// tunnel packet they are the tunnel endpoints.
	Src, Dst Addr
	Proto    Proto
	// Class is the class-of-traffic field (Table 3.1). It is copied to the
	// outer header on encapsulation so routers can classify tunnelled
	// packets without decapsulating.
	Class Class
	// Flow identifies the application flow for statistics.
	Flow FlowID
	// Seq is the application-level sequence number within the flow.
	Seq uint32
	// Size is the total on-the-wire size in bytes, including this header
	// and any encapsulated packet.
	Size int
	// Created is the instant the original application packet was sent;
	// preserved across encapsulation for end-to-end delay measurement.
	Created sim.Time
	// Payload carries a control message or TCP segment. It is shared (not
	// deep-copied) by Clone; payloads must therefore be immutable once
	// sent.
	Payload any
	// Inner is the encapsulated packet when Proto == ProtoTunnel.
	Inner *Packet
	// Requeued marks a frame an access point has handed back to its
	// router after failing to deliver it (the station detached mid-queue).
	// A frame bounces at most once; a second failure is a real loss.
	Requeued bool

	// pooled marks a packet currently resting in a PacketPool; it guards
	// against double-release and use-after-free of recycled packets.
	pooled bool
}

// Clone returns a copy of the packet (and, recursively, of any encapsulated
// packet). The payload pointer is shared.
func (p *Packet) Clone() *Packet {
	cp := *p
	if p.Inner != nil {
		cp.Inner = p.Inner.Clone()
	}
	return &cp
}

// Encapsulate wraps p in a heap-allocated tunnel header from src to dst
// (see EncapsulateInto).
func (p *Packet) Encapsulate(src, dst Addr) *Packet {
	return p.EncapsulateInto(new(Packet), src, dst)
}

// EncapsulateInto turns w into a tunnel header from src to dst around p,
// preserving the class field and creation time and accounting the header
// overhead, and returns w. Every field of w is overwritten, so w may come
// straight from a PacketPool: pooled wrappers make a tunnel hop
// allocation-free.
func (p *Packet) EncapsulateInto(w *Packet, src, dst Addr) *Packet {
	*w = Packet{
		ID:      p.ID,
		Src:     src,
		Dst:     dst,
		Proto:   ProtoTunnel,
		Class:   p.Class,
		Flow:    p.Flow,
		Seq:     p.Seq,
		Size:    p.Size + TunnelHeaderSize,
		Created: p.Created,
		Inner:   p,
	}
	return w
}

// Decapsulate strips one tunnel header and returns the inner packet. It
// returns nil if p is not a tunnel packet.
func (p *Packet) Decapsulate() *Packet {
	if p.Proto != ProtoTunnel {
		return nil
	}
	return p.Inner
}

// Innermost follows the encapsulation chain to the original packet.
func (p *Packet) Innermost() *Packet {
	for p.Proto == ProtoTunnel && p.Inner != nil {
		p = p.Inner
	}
	return p
}

// EffectiveClass resolves the class field per Table 3.1.
func (p *Packet) EffectiveClass() Class { return p.Class.Effective() }

// String renders a compact one-line description for traces.
func (p *Packet) String() string {
	if p.Proto == ProtoTunnel && p.Inner != nil {
		return fmt.Sprintf("tunnel[%s->%s](%s)", p.Src, p.Dst, p.Inner)
	}
	return fmt.Sprintf("%s[%s->%s flow=%d seq=%d size=%d class=%s]",
		p.Proto, p.Src, p.Dst, p.Flow, p.Seq, p.Size, p.Class)
}
