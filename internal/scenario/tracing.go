package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AttachTrace subscribes a trace log to the testbed's protocol events:
// control messages from every router and host, drops (with their
// site), deliveries, link transitions, and handoff completions. Existing
// hooks (the statistics recorder) keep working; the trace chains onto
// them.
//
// Events are emitted in typed form — node names interned once here, packet
// fields packed into integer arguments — so a hook firing costs no string
// formatting; the text is produced lazily when the log is rendered or
// exported, byte-identical to the former eager strings.
func (tb *Testbed) AttachTrace(log *trace.Log) {
	hookAR := func(name string, ar *core.AccessRouter) {
		node := trace.InternNode(name)
		prevDrop := ar.OnDrop
		ar.OnDrop = func(pkt *inet.Packet, where string) {
			if prevDrop != nil {
				prevDrop(pkt, where)
			}
			inner := pkt.Innermost()
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindDrop, NodeID: node,
				Seq:  int64(inner.Seq),
				Code: trace.CodeDropPacket,
				Arg0: int64(inner.Flow),
				Arg1: trace.PackPacket(inner.Proto, inner.Class, stats.InternSite(where)),
			})
		}
		prevCtl := ar.OnControl
		ar.OnControl = func(kind fho.Kind) {
			if prevCtl != nil {
				prevCtl(kind)
			}
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindControl, NodeID: node,
				Code: trace.CodeSendsControl, Arg0: int64(kind),
			})
		}
	}
	for _, ar := range tb.ARs {
		hookAR(ar.Router().Name(), ar)
	}

	for i, unit := range tb.MHs {
		node := trace.InternNode(fmt.Sprintf("mh%d", i))
		unit := unit
		prevCtl := unit.MH.OnControl
		unit.MH.OnControl = func(kind fho.Kind) {
			if prevCtl != nil {
				prevCtl(kind)
			}
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindControl, NodeID: node,
				Code: trace.CodeSendsControl, Arg0: int64(kind),
			})
		}
		prevDone := unit.MH.OnHandoffDone
		unit.MH.OnHandoffDone = func(rec core.HandoffRecord) {
			if prevDone != nil {
				prevDone(rec)
			}
			log.Emit(trace.Event{
				At: rec.Detached, Kind: trace.KindLinkDown, NodeID: node,
				Code: trace.CodeBlackoutBegins,
			})
			log.Emit(trace.Event{
				At: rec.Attached, Kind: trace.KindLinkUp, NodeID: node,
				Code: trace.CodeAttachedNewAP,
			})
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindHandoff, NodeID: node,
				Code: trace.CodeHandoffDone,
				Arg0: trace.PackHandoff(rec.Anticipated, rec.LinkLayerOnly, rec.NARGranted, rec.PARGranted),
			})
		}
		prevDeliver := unit.MH.OnDeliver
		unit.MH.OnDeliver = func(pkt *inet.Packet) {
			if prevDeliver != nil {
				prevDeliver(pkt)
			}
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindDeliver, NodeID: node,
				Seq:  int64(pkt.Seq),
				Code: trace.CodeDeliverPacket,
				Arg0: int64(pkt.Flow),
				Arg1: trace.PackPacket(pkt.Proto, pkt.Class, 0),
			})
		}
	}
}
