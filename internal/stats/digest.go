package stats

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// histSubBits sets the histogram's resolution: every power-of-two octave
// of sim.Time splits into 2^histSubBits linear sub-buckets, the
// log-linear layout of HdrHistogram (http://hdrhistogram.org/).
const histSubBits = 4

// histSub is the number of linear sub-buckets per octave.
const histSub = 1 << histSubBits

// histBuckets covers every non-negative sim.Time: the values below
// 2·histSub map one-to-one, and each higher octave, up to the one holding
// math.MaxInt64, adds histSub buckets.
const histBuckets = (64 - histSubBits) * histSub

// DelayHistogram counts delays in fixed log-linear buckets. Adding a delay
// is one bits.Len64, one shift and one increment, and the histogram never
// grows: it is histBuckets counters (7.5 KB), whatever the stream.
//
// Delays below 2·histSub ns sit in buckets of width one and are stored
// exactly. A larger delay v lands in a bucket [lo, lo+w) with lo ≥ 16·w,
// so the bucket midpoint Percentile reports is within w/2 ≤ v/32 of v:
// the relative error of any percentile is at most 1/32. Negative delays
// count as zero.
type DelayHistogram struct {
	counts [histBuckets]uint64
}

// histBucket maps a non-negative delay to its bucket. OR-ing in histSub
// keeps the shift at zero below 2·histSub without a branch.
func histBucket(d sim.Time) int {
	v := uint64(d)
	shift := bits.Len64(v|histSub) - (histSubBits + 1)
	return shift<<histSubBits + int(v>>uint(shift))
}

// histBounds returns the smallest and largest delay bucket i holds.
func histBounds(i int) (lo, hi sim.Time) {
	shift := i>>histSubBits - 1
	if shift < 0 {
		shift = 0
	}
	lo = sim.Time(i-shift<<histSubBits) << uint(shift)
	return lo, lo + (sim.Time(1)<<uint(shift) - 1)
}

// Add counts one delay.
func (h *DelayHistogram) Add(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(d)]++
}

// Count returns how many delays have been added.
func (h *DelayHistogram) Count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Percentile returns the midpoint of the bucket holding the nearest-rank
// p-th percentile (0 < p ≤ 100; larger p is clamped to 100), within 1/32
// of the exact value; zero when empty or p ≤ 0.
func (h *DelayHistogram) Percentile(p float64) sim.Time {
	rank := nearestRank(p, h.Count())
	if rank == 0 {
		return 0
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo+1)/2
		}
	}
	panic("stats: histogram rank past its count")
}

// nearestRank returns the 1-based nearest rank of the p-th percentile of n
// values (p clamped to 100), or zero when n is zero or p ≤ 0.
func nearestRank(p float64, n uint64) uint64 {
	if n == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// sortedPercentile is the exact nearest-rank percentile over a sorted
// slice, shared by FlowStats.DelayPercentile and the differential tests.
func sortedPercentile(sorted []sim.Time, p float64) sim.Time {
	rank := nearestRank(p, uint64(len(sorted)))
	if rank == 0 {
		return 0
	}
	return sorted[rank-1]
}

// sortTimes sorts delays ascending in place.
func sortTimes(ts []sim.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
