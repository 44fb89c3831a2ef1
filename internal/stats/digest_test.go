package stats

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/inet"
	"repro/internal/sim"
)

// spreadDelay maps a raw word to a non-negative delay whose magnitude is
// spread evenly over the octaves: the low bits choose how far the rest is
// shifted down, so every bucket of the histogram is reachable.
func spreadDelay(raw uint64) sim.Time {
	return sim.Time(int64(raw>>1) >> (raw % 63))
}

// withinBucketError reports whether an estimate is within the histogram's
// documented error of the exact value: 1/32 relative, exact below 32 ns.
func withinBucketError(est, exact sim.Time) bool {
	diff := est - exact
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= float64(exact)/32
}

func TestDelayDigestEmptyAndClamp(t *testing.T) {
	var h DelayHistogram
	if h.Count() != 0 || h.Percentile(99) != 0 || h.Percentile(0) != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Add(10 * sim.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Percentile(0) != 0 || h.Percentile(-5) != 0 {
		t.Fatal("percentile at or below 0 not zero")
	}
	if h.Percentile(150) != h.Percentile(100) {
		t.Fatal("percentile above 100 not clamped")
	}
	h.Add(-7) // a negative delay counts as zero
	if h.Count() != 2 || h.Percentile(50) != 0 {
		t.Fatalf("negative delay: count %d, p50 %v; want 2, 0", h.Count(), h.Percentile(50))
	}
}

func TestDelayDigestHistogramFallback(t *testing.T) {
	// Below 2·histSub ns every delay has a bucket of its own.
	for v := sim.Time(0); v < 2*histSub; v++ {
		var h DelayHistogram
		h.Add(v)
		if got := h.Percentile(50); got != v {
			t.Fatalf("small delay %d reads back as %d", v, got)
		}
	}
	// 1000 ns falls in the octave [512, 1024), split into 32 ns
	// sub-buckets: [992, 1023], whose midpoint is 1008.
	var h DelayHistogram
	for i := 0; i < 100; i++ {
		h.Add(1000)
	}
	if got := h.Percentile(42); got != 1008 {
		t.Fatalf("percentile = %v, want the bucket midpoint 1008", got)
	}
	// The last bucket ends exactly at the largest sim.Time.
	if b := histBucket(sim.MaxTime); b != histBuckets-1 {
		t.Fatalf("MaxTime in bucket %d, want %d", b, histBuckets-1)
	}
	if _, hi := histBounds(histBuckets - 1); hi != sim.MaxTime {
		t.Fatalf("last bucket ends at %d, want MaxTime", hi)
	}
	h.Add(sim.MaxTime)
	if got := h.Percentile(100); !withinBucketError(got, sim.MaxTime) {
		t.Fatalf("p100 with MaxTime = %d", got)
	}
}

// TestHistogramBucketsTile checks the bucket layout as a whole: buckets
// are contiguous, non-overlapping and start at zero, so every
// non-negative delay has exactly one bucket.
func TestHistogramBucketsTile(t *testing.T) {
	next := sim.Time(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != next || hi < lo {
			t.Fatalf("bucket %d is [%d, %d], want it to start at %d", i, lo, hi, next)
		}
		if histBucket(lo) != i || histBucket(hi) != i {
			t.Fatalf("bucket %d bounds map to %d and %d", i, histBucket(lo), histBucket(hi))
		}
		next = hi + 1
	}
}

// Property: over random delays spanning every octave of the non-negative
// int64 range, each delay lies inside its bucket's bounds, the bucket
// index is monotone in the delay, and every percentile is within 1/32 of
// the exact nearest-rank value.
func TestPropertyHistogramBoundedError(t *testing.T) {
	f := func(raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		var h DelayHistogram
		delays := make([]sim.Time, len(raw))
		for i, r := range raw {
			d := spreadDelay(r)
			lo, hi := histBounds(histBucket(d))
			if d < lo || d > hi {
				t.Logf("delay %d outside its bucket [%d, %d]", d, lo, hi)
				return false
			}
			delays[i] = d
			h.Add(d)
		}
		sortTimes(delays)
		for i := 1; i < len(delays); i++ {
			if histBucket(delays[i]) < histBucket(delays[i-1]) {
				t.Logf("bucket of %d below bucket of %d", delays[i], delays[i-1])
				return false
			}
		}
		for _, p := range []float64{0.1, 1, 10, 25, 50, 75, 90, 99, 99.9, 100} {
			est, exact := h.Percentile(p), sortedPercentile(delays, p)
			if !withinBucketError(est, exact) {
				t.Logf("p%v: histogram %d, exact %d", p, est, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDelayHistogram feeds arbitrary delay streams: the count is
// conserved, each delay is contained in its bucket, and the percentile is
// monotone in p.
func FuzzDelayHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h DelayHistogram
		var n uint64
		for ; len(data) >= 8; data = data[8:] {
			d := spreadDelay(binary.LittleEndian.Uint64(data))
			lo, hi := histBounds(histBucket(d))
			if d < lo || d > hi {
				t.Fatalf("delay %d outside its bucket [%d, %d]", d, lo, hi)
			}
			h.Add(d)
			n++
		}
		if h.Count() != n {
			t.Fatalf("Count = %d after %d adds", h.Count(), n)
		}
		prev := sim.Time(0)
		for _, p := range []float64{0.01, 1, 25, 50, 90, 99, 99.99, 100} {
			v := h.Percentile(p)
			if v < prev {
				t.Fatalf("p%v = %d below the previous percentile %d", p, v, prev)
			}
			prev = v
		}
	})
}

// TestStreamingDifferential replays one seeded operation stream through a
// recorder that keeps every flow's samples and one that keeps none: every
// counter, running aggregate and class histogram must agree exactly, and
// each class's histogram percentiles must stay within 1/32 of the exact
// nearest-rank value over that class's kept samples.
func TestStreamingDifferential(t *testing.T) {
	kept := NewRecorder()
	unkept := NewRecorder()
	for flow := inet.FlowID(1); flow <= 8; flow++ {
		kept.KeepSamples(flow)
	}
	rng := rand.New(rand.NewSource(42))

	sites := []string{"par-buffer", "nar-buffer", "par-policy", "lifetime", "air"}
	now := sim.Time(0)
	for i := 0; i < 20_000; i++ {
		now += sim.Time(rng.Intn(1000) + 1)
		flow := inet.FlowID(rng.Intn(8) + 1)
		p := &inet.Packet{
			Flow: flow, Proto: inet.ProtoUDP, Size: 160,
			Class:   inet.Classes[int(flow)%3],
			Seq:     uint32(i),
			Created: now,
		}
		kept.Sent(p)
		unkept.Sent(p)
		switch rng.Intn(10) {
		case 0: // lost somewhere
			site := sites[rng.Intn(len(sites))]
			kept.Dropped(p, site)
			unkept.Dropped(p, site)
		default:
			at := now + sim.Time(rng.Intn(200_000)+20)
			kept.Delivered(p, at)
			unkept.Delivered(p, at)
		}
	}

	if kept.TotalSent() != unkept.TotalSent() ||
		kept.TotalDelivered() != unkept.TotalDelivered() ||
		kept.TotalLost() != unkept.TotalLost() {
		t.Fatal("totals diverge between the kept and unkept recorders")
	}
	for site, n := range kept.SiteDrops() {
		if unkept.SiteDrops()[site] != n {
			t.Fatalf("site %s drop counts diverge", DropSite(site))
		}
	}
	ef, sf := kept.Flows(), unkept.Flows()
	if len(ef) != len(sf) {
		t.Fatalf("flow counts diverge: %d vs %d", len(ef), len(sf))
	}
	classDelays := map[inet.Class][]sim.Time{}
	for i := range ef {
		e, s := ef[i], sf[i]
		if e.Flow != s.Flow || e.Sent != s.Sent || e.Delivered != s.Delivered {
			t.Fatalf("flow %d counters diverge", e.Flow)
		}
		if e.DelayCount() != s.DelayCount() {
			t.Fatalf("flow %d delay counts diverge", e.Flow)
		}
		if n := len(e.Delays); n == 0 || n != int(e.DelayCount()) {
			t.Fatalf("kept flow %d retained %d samples of %d deliveries", e.Flow, n, e.DelayCount())
		}
		// Running aggregates share the same arithmetic: exact equality.
		if e.MaxDelay() != s.MaxDelay() || e.MeanDelay() != s.MeanDelay() || e.Jitter() != s.Jitter() {
			t.Fatalf("flow %d aggregate delays diverge", e.Flow)
		}
		if len(s.Delays) != 0 {
			t.Fatalf("unkept flow %d retained %d samples", s.Flow, len(s.Delays))
		}
		for _, d := range e.Delays {
			classDelays[e.Class] = append(classDelays[e.Class], d.Delay)
		}
	}
	if len(classDelays) != len(inet.Classes) {
		t.Fatalf("delays seen in %d classes, want %d", len(classDelays), len(inet.Classes))
	}
	for class, delays := range classDelays {
		sortTimes(delays)
		for _, p := range []float64{1, 50, 90, 95, 99, 99.9, 100} {
			ev, sv := sortedPercentile(delays, p), unkept.ClassDelayPercentile(class, p)
			if !withinBucketError(sv, ev) {
				t.Errorf("%v p%v: histogram %v vs exact %v", class, p, sv, ev)
			}
			if kv := kept.ClassDelayPercentile(class, p); kv != sv {
				t.Errorf("%v p%v: kept recorder's histogram %v vs unkept %v", class, p, kv, sv)
			}
		}
	}
	if unkept.ClassDelayPercentile(inet.ClassUnspecified, 50) != 0 {
		t.Fatal("recorder invented unspecified-class delays")
	}
}

func TestInternSiteIdempotent(t *testing.T) {
	a := InternSite("par-buffer")
	b := InternSite("par-buffer")
	if a != b || a != SitePARBuffer {
		t.Fatalf("interning not idempotent: %v %v", a, b)
	}
	if a.String() != "par-buffer" {
		t.Fatalf("String = %q", a.String())
	}
	if _, ok := LookupSite("par-buffer"); !ok {
		t.Fatal("LookupSite missed a registered site")
	}
	if _, ok := LookupSite("never-registered-site"); ok {
		t.Fatal("LookupSite invented a site")
	}
}

func TestCanonicalSiteOrder(t *testing.T) {
	// The report enumerates drop counters by site index; the canonical
	// sites must keep their registration order.
	want := []DropSite{SitePARBuffer, SiteNARBuffer, SitePARPolicy, SiteLifetime, SiteAir, SiteLinkQueue}
	names := []string{"par-buffer", "nar-buffer", "par-policy", "lifetime", "air", "link-queue"}
	for i, site := range want {
		if InternSite(names[i]) != site {
			t.Fatalf("site %q interned out of order", names[i])
		}
		if site.String() != names[i] {
			t.Fatalf("site %d renders %q, want %q", site, site.String(), names[i])
		}
	}
}

// FuzzInternSite checks the interner is collision-free and idempotent for
// arbitrary names: same name → same ID, different names → different IDs,
// and String round-trips.
func FuzzInternSite(f *testing.F) {
	f.Add("par-buffer")
	f.Add("")
	f.Add("a")
	f.Add("link-queue")
	f.Add("site-with-✓-unicode")
	f.Fuzz(func(t *testing.T, name string) {
		id := InternSite(name)
		if again := InternSite(name); again != id {
			t.Fatalf("InternSite(%q) not idempotent: %v then %v", name, id, again)
		}
		if got := id.String(); got != name {
			t.Fatalf("String round-trip: %q -> %v -> %q", name, id, got)
		}
		if other := InternSite(name + "\x00x"); other == id {
			t.Fatalf("collision: %q and %q share ID %v", name, name+"\x00x", id)
		}
	})
}

func TestClassDelayPercentileFoldsUnknownClass(t *testing.T) {
	r := NewRecorder()
	const odd = inet.Class(9)
	r.DeclareFlow(1, odd)
	r.Delivered(&inet.Packet{Flow: 1, Class: odd, Created: 100}, 120)
	if got := r.ClassDelayPercentile(inet.ClassUnspecified, 100); got != 20 {
		t.Fatalf("unspecified-class p100 = %v, want the folded 20 ns delay", got)
	}
	if got := r.ClassDelayPercentile(odd, 100); got != 20 {
		t.Fatalf("class %d p100 = %v, want it to answer as unspecified", odd, got)
	}
	for _, c := range inet.Classes {
		if r.ClassDelayPercentile(c, 100) != 0 {
			t.Fatalf("class %v picked up the folded delay", c)
		}
	}
}
