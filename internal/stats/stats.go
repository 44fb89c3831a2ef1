// Package stats collects the measurements the thesis' figures are built
// from: per-flow send/deliver/drop counts, per-packet end-to-end delay
// samples, and bucketed time series (throughput).
//
// The recording hot path is O(1) and allocation-free in steady state:
// flows live in a dense table indexed by a small interned flow index, and
// drops are counted in arrays indexed by interned DropSite instead of
// string-keyed maps. Every delivery takes one path: each flow keeps O(1)
// running aggregates (count, sum, max, jitter), and the recorder keeps one
// DelayHistogram per traffic class (Table 3.1), a fixed log-linear layout
// that answers any class percentile within 1/32 of the exact value. That
// state is ~30 KB per recorder, allocated once, whatever the number of
// flows or packets. A flow retains its DelaySamples only after its reader
// calls Recorder.KeepSamples: the per-packet traces keep the few flows
// they render, and every other flow stays O(1).
//
// All collectors run on the single simulation goroutine; none are safe for
// concurrent use.
package stats

import (
	"sort"

	"repro/internal/inet"
	"repro/internal/sim"
)

// Mode once selected a recorder-wide delay retention.
//
// Deprecated: ignored. Every Recorder streams, and a flow keeps samples
// after Recorder.KeepSamples.
type Mode uint8

// ModeStreaming is the retention every Recorder has.
//
// Deprecated: ignored, like Mode.
const ModeStreaming Mode = 1

// DelaySample is one delivered packet's end-to-end latency.
type DelaySample struct {
	// Seq is the application sequence number.
	Seq uint32
	// At is the delivery instant.
	At sim.Time
	// Delay is delivery time minus creation time.
	Delay sim.Time
}

// FlowStats aggregates one application flow.
type FlowStats struct {
	Flow  inet.FlowID
	Class inet.Class

	Sent      uint64
	Delivered uint64

	// Delays retains every delivery sample, in delivery (and therefore At)
	// order, once Recorder.KeepSamples has marked the flow; it stays empty
	// otherwise.
	Delays []DelaySample
	keep   bool

	// drops counts packets reported lost, indexed by DropSite.
	drops []uint64

	// Running delay aggregates, maintained on every Delivered so
	// max/mean/jitter are O(1) queries at any scale.
	delayCount uint64
	delaySum   sim.Time
	delayMax   sim.Time
	lastDelay  sim.Time
	jitterSum  sim.Time

	// sortedDelays caches the ascending delays for percentile queries;
	// rebuilt only when Delays has grown since the last query.
	sortedDelays []sim.Time
}

// DroppedTotal sums drops across locations.
func (f *FlowStats) DroppedTotal() uint64 {
	var total uint64
	for _, n := range f.drops {
		total += n
	}
	return total
}

// DroppedAt returns the drops recorded at a location label.
func (f *FlowStats) DroppedAt(where string) uint64 {
	site, ok := LookupSite(where)
	if !ok {
		return 0
	}
	return f.DroppedAtSite(site)
}

// DroppedAtSite returns the drops recorded at an interned site.
func (f *FlowStats) DroppedAtSite(site DropSite) uint64 {
	if int(site) < len(f.drops) {
		return f.drops[site]
	}
	return 0
}

// addDrop charges one drop to a site, growing the counter array on first
// use of a new site (steady state: a single array increment).
func (f *FlowStats) addDrop(site DropSite) {
	for int(site) >= len(f.drops) {
		f.drops = append(f.drops, 0)
	}
	f.drops[site]++
}

// Lost returns sent minus delivered: every packet unaccounted for at the
// end of a run, whether it died in a buffer, on the air, or in a queue.
func (f *FlowStats) Lost() uint64 {
	if f.Delivered > f.Sent {
		return 0
	}
	return f.Sent - f.Delivered
}

// DelayCount returns how many delay observations the flow has.
func (f *FlowStats) DelayCount() uint64 { return f.delayCount }

// observeDelay maintains the running aggregates.
func (f *FlowStats) observeDelay(d sim.Time) {
	f.delayCount++
	f.delaySum += d
	if d > f.delayMax {
		f.delayMax = d
	}
	if f.delayCount > 1 {
		diff := d - f.lastDelay
		if diff < 0 {
			diff = -diff
		}
		f.jitterSum += diff
	}
	f.lastDelay = d
}

// MaxDelay returns the largest recorded delay (zero when empty).
func (f *FlowStats) MaxDelay() sim.Time { return f.delayMax }

// MeanDelay returns the average recorded delay (zero when empty).
func (f *FlowStats) MeanDelay() sim.Time {
	if f.delayCount == 0 {
		return 0
	}
	return f.delaySum / sim.Time(f.delayCount)
}

// Recorder is the central measurement sink for one simulation run.
type Recorder struct {
	// flows is the dense flow table in first-seen order; dense maps small
	// flow IDs straight to an index (dense[id] = index+1), and sparse
	// catches IDs beyond the direct-index bound.
	flows  []*FlowStats
	dense  []int32
	sparse map[inet.FlowID]int32
	// siteCounts aggregates drops across flows, indexed by DropSite.
	siteCounts []uint64

	// SafetyNet bandwidth-overhead counters: duplicates the anchor emitted
	// on wired links, and where the redundant copies were discarded.
	dupPackets uint64
	dupBytes   uint64
	dedupMH    uint64
	dedupNAR   uint64

	// classDelays holds one delay histogram per class, indexed by
	// inet.Class.
	classDelays [numClasses]DelayHistogram
}

// numClasses counts the Table 3.1 class values, ClassUnspecified included.
const numClasses = int(inet.ClassBestEffort) + 1

// classSlot folds a class outside Table 3.1 into ClassUnspecified.
func classSlot(c inet.Class) inet.Class {
	if !c.Valid() {
		return inet.ClassUnspecified
	}
	return c
}

// denseLimit bounds the direct-index flow table. Scenario flow IDs are
// small sequential integers (Topology.NewFlowID starts at 1), so in
// practice every flow takes the one-array-load path.
const denseLimit = 1 << 20

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// flow returns (creating if needed) the stats bucket for a flow.
func (r *Recorder) flow(id inet.FlowID) *FlowStats {
	if uint64(id) < uint64(len(r.dense)) {
		if i := r.dense[id]; i != 0 {
			return r.flows[i-1]
		}
	}
	return r.flowSlow(id)
}

// flowSlow creates the bucket for a flow seen for the first time (or
// looks it up through the sparse fallback).
func (r *Recorder) flowSlow(id inet.FlowID) *FlowStats {
	if id >= denseLimit {
		if i, ok := r.sparse[id]; ok {
			return r.flows[i-1]
		}
	}
	f := &FlowStats{Flow: id}
	r.flows = append(r.flows, f)
	idx := int32(len(r.flows))
	if id < denseLimit {
		for uint64(id) >= uint64(len(r.dense)) {
			grown := make([]int32, (len(r.dense)+1)*2)
			copy(grown, r.dense)
			r.dense = grown
		}
		r.dense[id] = idx
	} else {
		if r.sparse == nil {
			r.sparse = make(map[inet.FlowID]int32)
		}
		r.sparse[id] = idx
	}
	return f
}

// DeclareFlow registers a flow's class ahead of traffic, so empty flows
// still report.
func (r *Recorder) DeclareFlow(id inet.FlowID, class inet.Class) {
	r.flow(id).Class = class
}

// KeepSamples makes the flow retain a DelaySample for every delivery from
// now on, for the readers of Delays, DelaysIn, DeliveryGap and
// DelayPercentile. Call it before the flow's traffic starts.
func (r *Recorder) KeepSamples(id inet.FlowID) { r.flow(id).keep = true }

// Sent records one transmitted application packet.
func (r *Recorder) Sent(pkt *inet.Packet) {
	f := r.flow(pkt.Flow)
	f.Sent++
	if f.Class == inet.ClassUnspecified {
		f.Class = pkt.Class
	}
}

// Delivered records one received application packet at the given instant.
func (r *Recorder) Delivered(pkt *inet.Packet, at sim.Time) {
	f := r.flow(pkt.Flow)
	f.Delivered++
	d := at - pkt.Created
	f.observeDelay(d)
	r.classDelays[classSlot(f.Class)].Add(d)
	if f.keep {
		f.Delays = append(f.Delays, DelaySample{Seq: pkt.Seq, At: at, Delay: d})
	}
}

// Dropped records one lost packet with its drop location. Tunnel headers
// are stripped so the innermost flow is charged; the aggregate site total
// is charged even when the innermost flow is untracked (Flow 0, control
// traffic).
func (r *Recorder) Dropped(pkt *inet.Packet, where string) {
	r.DroppedSite(pkt, InternSite(where))
}

// DroppedSite is the pre-interned fast path of Dropped.
func (r *Recorder) DroppedSite(pkt *inet.Packet, site DropSite) {
	inner := pkt.Innermost()
	if inner.Flow != 0 {
		r.flow(inner.Flow).addDrop(site)
	}
	for int(site) >= len(r.siteCounts) {
		r.siteCounts = append(r.siteCounts, 0)
	}
	r.siteCounts[site]++
}

// Flow returns the stats for one flow (nil if never seen).
func (r *Recorder) Flow(id inet.FlowID) *FlowStats {
	if uint64(id) < uint64(len(r.dense)) {
		if i := r.dense[id]; i != 0 {
			return r.flows[i-1]
		}
		return nil
	}
	if i, ok := r.sparse[id]; ok {
		return r.flows[i-1]
	}
	return nil
}

// Flows returns all flows sorted by ID.
func (r *Recorder) Flows() []*FlowStats {
	out := make([]*FlowStats, len(r.flows))
	copy(out, r.flows)
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// DropsAt returns the total drops recorded at a location label.
func (r *Recorder) DropsAt(where string) uint64 {
	site, ok := LookupSite(where)
	if !ok {
		return 0
	}
	return r.DropsAtSite(site)
}

// DropsAtSite returns the total drops recorded at an interned site.
func (r *Recorder) DropsAtSite(site DropSite) uint64 {
	if int(site) < len(r.siteCounts) {
		return r.siteCounts[site]
	}
	return 0
}

// SiteDrops returns the per-site aggregate drop counters, indexed by
// DropSite in interning order. The slice is a copy.
func (r *Recorder) SiteDrops() []uint64 {
	out := make([]uint64, len(r.siteCounts))
	copy(out, r.siteCounts)
	return out
}

// BicastDuplicate records one duplicate the anchor emitted on the wired
// side under SafetyNet bicast (pkt is the tunnel wrapper; its size counts
// the header overhead too).
func (r *Recorder) BicastDuplicate(pkt *inet.Packet) {
	r.dupPackets++
	r.dupBytes += uint64(pkt.Size)
}

// DedupDiscardMH records one redundant bicast copy the mobile host's
// sequence window suppressed.
func (r *Recorder) DedupDiscardMH() { r.dedupMH++ }

// DedupDiscardNAR records one held bicast copy the NAR discarded because
// the selective-delivery report acknowledged it (or its hold window
// evicted it).
func (r *Recorder) DedupDiscardNAR() { r.dedupNAR++ }

// DupPackets returns the anchor-emitted duplicate count.
func (r *Recorder) DupPackets() uint64 { return r.dupPackets }

// DupBytes returns the wire bytes of the anchor-emitted duplicates.
func (r *Recorder) DupBytes() uint64 { return r.dupBytes }

// DedupDiscardsMH returns the duplicates suppressed at the mobile host.
func (r *Recorder) DedupDiscardsMH() uint64 { return r.dedupMH }

// DedupDiscardsNAR returns the held copies discarded at the NAR.
func (r *Recorder) DedupDiscardsNAR() uint64 { return r.dedupNAR }

// OverheadRatio returns the bandwidth overhead of bicast as duplicated
// packets per application packet sent (zero when nothing was sent).
func (r *Recorder) OverheadRatio() float64 {
	sent := r.TotalSent()
	if sent == 0 {
		return 0
	}
	return float64(r.dupPackets) / float64(sent)
}

// TotalSent sums sends across flows.
func (r *Recorder) TotalSent() uint64 {
	var total uint64
	for _, f := range r.flows {
		total += f.Sent
	}
	return total
}

// TotalDelivered sums deliveries across flows.
func (r *Recorder) TotalDelivered() uint64 {
	var total uint64
	for _, f := range r.flows {
		total += f.Delivered
	}
	return total
}

// TotalLost sums sent-minus-delivered across flows.
func (r *Recorder) TotalLost() uint64 {
	var total uint64
	for _, f := range r.flows {
		total += f.Lost()
	}
	return total
}

// DelayPercentile returns the exact nearest-rank p-th percentile
// (0 < p ≤ 100) of the flow's retained delays: sorted once into a cached
// copy that is reused until new samples arrive. Kept flows only (zero
// without retained samples; Recorder.ClassDelayPercentile answers for any
// class).
func (f *FlowStats) DelayPercentile(p float64) sim.Time {
	if len(f.sortedDelays) != len(f.Delays) {
		f.sortedDelays = f.sortedDelays[:0]
		for _, s := range f.Delays {
			f.sortedDelays = append(f.sortedDelays, s.Delay)
		}
		sortTimes(f.sortedDelays)
	}
	return sortedPercentile(f.sortedDelays, p)
}

// ClassDelayPercentile returns the p-th percentile (0 < p ≤ 100) of the
// delays delivered on flows of one class, from the class's DelayHistogram:
// within 1/32 of the exact nearest-rank value, and exact below 32 ns.
// Classes outside Table 3.1 answer as ClassUnspecified.
func (r *Recorder) ClassDelayPercentile(class inet.Class, p float64) sim.Time {
	return r.classDelays[classSlot(class)].Percentile(p)
}

// Jitter returns the mean absolute difference between consecutive
// packets' delays (the RFC 3550 interarrival-jitter idea without the
// smoothing filter); zero with fewer than two samples.
func (f *FlowStats) Jitter() sim.Time {
	if f.delayCount < 2 {
		return 0
	}
	return f.jitterSum / sim.Time(f.delayCount-1)
}

// DelaysIn returns the recorded delay samples whose delivery instants fall
// inside [lo, hi], as a subslice of Delays (do not mutate). Delays are
// stored in At order, so the window is located by binary search instead of
// a full scan. Kept flows only (empty without retained samples).
func (f *FlowStats) DelaysIn(lo, hi sim.Time) []DelaySample {
	ds := f.Delays
	i := sort.Search(len(ds), func(i int) bool { return ds[i].At >= lo })
	j := sort.Search(len(ds), func(j int) bool { return ds[j].At > hi })
	if i >= j {
		return nil
	}
	return ds[i:j]
}

// DeliveryGap returns the longest interval between consecutive recorded
// deliveries whose instants fall inside [lo, hi] — the service-outage
// measure of the baseline and latency experiments. Kept flows only (zero
// without retained samples). Delays are stored in At order, so the window
// is located by binary search.
func (f *FlowStats) DeliveryGap(lo, hi sim.Time) sim.Time {
	ds := f.Delays
	i := sort.Search(len(ds), func(i int) bool { return ds[i].At >= lo })
	var gap, prev sim.Time
	for ; i < len(ds) && ds[i].At <= hi; i++ {
		if prev != 0 && ds[i].At-prev > gap {
			gap = ds[i].At - prev
		}
		prev = ds[i].At
	}
	return gap
}
