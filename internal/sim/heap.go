package sim

import "math/bits"

// heapEntry is one queue slot: the event and a copy of its instant. The
// instant never changes while the event is queued, so the copy stays
// exact, and the sift loops and the buckets read instants without
// touching the event.
type heapEntry struct {
	at Time
	ev *event
}

// less orders two entries by eventLess, reading the events only when the
// instants tie.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return eventLess(a.ev, b.ev)
}

// deepQueue is the heap depth at which the queue leaves the plain heap
// for the bucketed layout. A BenchmarkSchedulerDepth sweep of the heap
// against buckets alone put the crossover between 512 and 1024 pending
// events; with sorted runs it lies between 128 and 512 (EXPERIMENTS.md,
// "Radix event queue" and "Sorted runs"). No workload sits in between, so
// the threshold stayed. The queue folds back into the heap once the
// buckets hold fewer than deepQueue/4 entries, so a queue hovering near
// the threshold does not switch on every push.
const deepQueue = 512

// The buckets split a 64-bit instant into radixLevels digits of four
// bits each.
const (
	radixLevels = 16
	radixDigits = 16
)

// blockLen is the number of entries in one bucket block.
const blockLen = 32

// bucketBlock is a fixed run of bucket entries. A bucket is a chain of
// blocks, newest first, where every block but the newest is full. Blocks
// come from and return to the queue's free chain, so a drained bucket keeps
// no memory of its own: the queue holds as many blocks as its deepest
// moment needed, as the heap holds its longest array.
type bucketBlock struct {
	next *bucketBlock
	es   [blockLen]heapEntry
}

// eventQueue is the engine's event queue. It picks its layout from the
// depth it observes:
//
//   - Shallow (the common case for small topologies): a 4-ary min-heap
//     of every entry, ordered by eventLess.
//   - Deep (more than deepQueue entries in the heap): the entries at or
//     before the instant base sit in the heap or in a sorted run, and
//     every later entry sits in a radix bucket keyed on the highest digit
//     in which its instant differs from base. Bucket (l, d) holds the
//     entries whose instant agrees with base above digit l and has digit
//     d there, so the buckets are ordered: lower level first, then lower
//     digit. When the heap and the run drain, the lowest non-empty bucket
//     refills them (see refill). A bucket that fits in one block becomes
//     the run, sorted, and its last instant the new base; a longer one
//     gives its minimum instant to the heap and base, and its other
//     entries move to lower levels. Event instants never fall behind the
//     clock, so an entry only ever moves down, a few times in its life,
//     where the heap would sift it five levels per pop.
//
// The total key is unique, so both layouts fire the same sequence. The
// peeks of Run and ShardGroup can advance base past the clock, and the
// shard exchange then schedules arrivals before base; every push at or
// before base therefore goes to the heap, never to a bucket, and a deep
// pop takes the smaller of the run's head and the heap's top.
//
// The queue tolerates lazily-cancelled entries, which the engine skips and
// recycles on pop, or collects in bulk via sweep.
type eventQueue struct {
	heapQueue
	deep bool
	// base splits the deep layout: heap and run entries are at or before
	// it, bucket entries after it. It only grows while the queue stays
	// deep.
	base Time
	// nb counts the bucket entries; the run is counted apart.
	nb int
	// The buckets are made when the queue first goes deep, so an engine
	// that never does (a runner's scratch engine for a small figure)
	// does not allocate or clear them.
	*radix
}

// radix holds the deep layout's buckets. levels has bit l set when some
// bucket of level l is non-empty, and digits[l] bit d when bucket (l, d)
// is.
type radix struct {
	levels uint16
	digits [radixLevels]uint16
	// buckets[l][d] is the newest block of bucket (l, d), and fill[l][d]
	// the entries in it. The count sits here, beside the pointer, so a
	// push touches only the line it writes in the block.
	buckets [radixLevels][radixDigits]*bucketBlock
	fill    [radixLevels][radixDigits]uint8
	free    *bucketBlock
	// run[rh:rn] is the sorted run: the entries of the last one-block
	// bucket refill not yet popped, served from rh.
	run    [blockLen]heapEntry
	rh, rn int
}

func (q *eventQueue) size() int {
	n := len(q.es) + q.nb
	if q.radix != nil {
		n += q.rn - q.rh
	}
	return n
}

func (q *eventQueue) push(ev *event) {
	x := heapEntry{at: ev.at, ev: ev}
	if q.deep && x.at > q.base {
		q.bucket(x)
		q.nb++
		return
	}
	q.heapQueue.push(x)
	if len(q.es) > deepQueue && !q.deep {
		q.spill()
	}
}

// peek returns the earliest queued event, or nil when nothing is queued.
// pop then removes that event: the engine pops only after a peek found
// one. A shallow queue is its heap, whose top Engine.Step pops directly;
// a deep one goes through peekDeep and popDeep.
func (q *eventQueue) peek() *event {
	if q.deep {
		return q.peekDeep()
	}
	if len(q.es) == 0 {
		return nil
	}
	return q.es[0].ev
}

// pop removes the entry the last peek returned.
func (q *eventQueue) pop() {
	if q.deep {
		q.popDeep()
	} else {
		q.heapQueue.pop()
	}
}

// peekDeep is peek in the deep layout: the smaller of the run's head and
// the heap's top, refilling both from the buckets first when they are
// drained.
func (q *eventQueue) peekDeep() *event {
	r := q.radix
	if r.rh == r.rn {
		if len(q.es) == 0 {
			if q.nb == 0 {
				return nil
			}
			q.refill()
			return q.peek()
		}
		return q.es[0].ev
	}
	if x := &r.run[r.rh]; len(q.es) == 0 || x.less(q.es[0]) {
		return x.ev
	}
	return q.es[0].ev
}

// popDeep is pop in the deep layout.
func (q *eventQueue) popDeep() {
	r := q.radix
	if r.rh < r.rn && (len(q.es) == 0 || r.run[r.rh].less(q.es[0])) {
		r.rh++
		return
	}
	q.heapQueue.pop()
}

// bucketOf returns the bucket of an instant after base: the level is the
// highest 4-bit digit in which the two differ, the digit is at's there.
func (q *eventQueue) bucketOf(at Time) (l, d int) {
	l = (bits.Len64(uint64(at^q.base)) - 1) >> 2 & (radixLevels - 1)
	d = int(uint64(at)>>(4*l)) & (radixDigits - 1)
	return l, d
}

// bucket files an entry after base into its bucket; the caller counts it.
func (q *eventQueue) bucket(x heapEntry) {
	l, d := q.bucketOf(x.at)
	b, n := q.buckets[l][d], q.fill[l][d]
	if n == 0 || n == blockLen {
		blk := q.free
		if blk == nil {
			blk = new(bucketBlock)
		} else {
			q.free = blk.next
		}
		blk.next = b
		b, n = blk, 0
		q.buckets[l][d] = b
		q.digits[l] |= 1 << d
		q.levels |= 1 << l
	}
	b.es[n] = x
	q.fill[l][d] = n + 1
}

// take detaches bucket (l, d) and returns its chain and the entries in the
// chain's first block.
func (q *eventQueue) take(l, d int) (*bucketBlock, int) {
	b, n := q.buckets[l][d], int(q.fill[l][d])
	q.buckets[l][d], q.fill[l][d] = nil, 0
	q.digits[l] &^= 1 << d
	if q.digits[l] == 0 {
		q.levels &^= 1 << l
	}
	return b, n
}

// release returns a detached chain, whose first block holds n entries, to
// the free chain, cleared so it retains no event.
func (q *eventQueue) release(b *bucketBlock, n int) {
	last := b
	for c := b; c != nil; c, n = c.next, blockLen {
		clear(c.es[:n])
		last = c
	}
	last.next = q.free
	q.free = b
}

// spill enters the deep layout: base becomes the heap's minimum instant,
// and every later entry moves to its bucket.
func (q *eventQueue) spill() {
	if q.radix == nil {
		q.radix = new(radix)
	}
	q.deep = true
	q.base = q.es[0].at
	keep := q.es[:0]
	for _, x := range q.es {
		if x.at <= q.base {
			keep = append(keep, x)
		} else {
			q.bucket(x)
			q.nb++
		}
	}
	clear(q.es[len(keep):])
	q.es = keep
	q.heapify()
}

// refill serves the lowest non-empty bucket once the heap and the run
// have drained. Every other bucket lies strictly after it, so:
//
//   - a bucket in one block becomes the run, sorted, and its last instant
//     the new base; no entry is filed again;
//   - a longer bucket's minimum instant becomes the new base, the entries
//     at that instant enter the heap, and the rest move to lower levels.
//
// It folds the queue back into the heap once the buckets hold fewer than
// deepQueue/4 entries.
func (q *eventQueue) refill() {
	l := bits.TrailingZeros16(q.levels)
	b, n := q.take(l, bits.TrailingZeros16(q.digits[l]))
	if b.next == nil {
		// Insertion sort on the full key: a run averages a few entries.
		r := q.radix
		clear(r.run[:r.rn])
		run := r.run[:n]
		for i, x := range b.es[:n] {
			for ; i > 0 && x.less(run[i-1]); i-- {
				run[i] = run[i-1]
			}
			run[i] = x
		}
		r.rh, r.rn = 0, n
		q.base = run[n-1].at
		q.nb -= n
	} else {
		m := b.es[0].at
		for c, k := b, n; c != nil; c, k = c.next, blockLen {
			for _, x := range c.es[:k] {
				m = min(m, x.at)
			}
		}
		// Every entry of the bucket agrees with m above digit l, so the
		// ones after m land in lower levels.
		q.base = m
		for c, k := b, n; c != nil; c, k = c.next, blockLen {
			for _, x := range c.es[:k] {
				if x.at == m {
					q.heapQueue.push(x)
					q.nb--
				} else {
					q.bucket(x)
				}
			}
		}
	}
	q.release(b, n)
	if q.nb < deepQueue/4 {
		q.fold()
	}
}

// fold returns to the shallow layout: every run and bucket entry joins the
// heap. The run and the buckets hold entries only while the queue is deep.
func (q *eventQueue) fold() {
	r := q.radix
	q.es = append(q.es, r.run[r.rh:r.rn]...)
	clear(r.run[:r.rn])
	r.rh, r.rn = 0, 0
	for q.levels != 0 {
		l := bits.TrailingZeros16(q.levels)
		b, n := q.take(l, bits.TrailingZeros16(q.digits[l]))
		for c, k := b, n; c != nil; c, k = c.next, blockLen {
			q.es = append(q.es, c.es[:k]...)
		}
		q.release(b, n)
	}
	q.nb = 0
	q.deep = false
	q.heapify()
}

// sweep removes every cancelled event in O(n): compact the heap and the
// run in place and refile each bucket's live entries, then rebuild the
// heap bottom-up.
func (q *eventQueue) sweep(recycle func(*event)) {
	live := q.es[:0]
	for _, x := range q.es {
		if x.ev.cancel {
			recycle(x.ev)
		} else {
			live = append(live, x)
		}
	}
	// Clear the tail so recycled slots aren't retained by the backing array.
	clear(q.es[len(live):])
	q.es = live
	q.heapify()
	if !q.deep {
		return
	}
	r := q.radix
	run := r.run[:0]
	for _, x := range r.run[r.rh:r.rn] {
		if x.ev.cancel {
			recycle(x.ev)
		} else {
			run = append(run, x)
		}
	}
	clear(r.run[len(run):r.rn])
	r.rh, r.rn = 0, len(run)
	for lv := q.levels; lv != 0; lv &= lv - 1 {
		l := bits.TrailingZeros16(lv)
		for dg := q.digits[l]; dg != 0; dg &= dg - 1 {
			b, n := q.take(l, bits.TrailingZeros16(dg))
			for c, k := b, n; c != nil; c, k = c.next, blockLen {
				for _, x := range c.es[:k] {
					if x.ev.cancel {
						recycle(x.ev)
						q.nb--
					} else {
						q.bucket(x)
					}
				}
			}
			q.release(b, n)
		}
	}
	if q.nb < deepQueue/4 {
		q.fold()
	}
}

// reset recycles every queued event and returns to the shallow layout,
// keeping the heap's capacity and the blocks on the free chain.
func (q *eventQueue) reset(recycle func(*event)) {
	if q.deep {
		q.fold()
	}
	q.heapQueue.reset(recycle)
}

// heapQueue is a 4-ary min-heap of heapEntry, ordered by eventLess: the
// whole queue while it is shallow, the entries up to base once it is deep.
//
// The cost of a sift is branch misprediction, not cache misses: which of
// four children holds the smallest instant is a coin flip the predictor
// cannot learn. So down picks the smallest child of a full group of four
// with min and bool-to-int arithmetic, which compiles to conditional moves,
// and falls back to eventLess only when two candidates share the winning
// instant. On the metro workload only 3.6% of the old branchy loop's
// comparisons met two equal instants.
type heapQueue struct {
	es []heapEntry
}

func (h *heapQueue) push(x heapEntry) {
	h.es = append(h.es, x)
	h.up(len(h.es) - 1)
}

func (h *heapQueue) pop() *event {
	n := len(h.es)
	if n == 0 {
		return nil
	}
	top := h.es[0].ev
	last := h.es[n-1]
	h.es[n-1] = heapEntry{}
	h.es = h.es[:n-1]
	if n > 1 {
		h.es[0] = last
		h.down(0)
	}
	return top
}

func (h *heapQueue) up(i int) {
	es := h.es
	x := es[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := es[parent]
		if !x.less(p) {
			break
		}
		es[i] = p
		i = parent
	}
	es[i] = x
}

// b2i is 1 for true and 0 for false; the compiler emits SETcc for it.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

func (h *heapQueue) down(i int) {
	es := h.es
	n := len(es)
	x := es[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		if first+4 <= n {
			g := es[first : first+4 : first+4]
			a0, a1, a2, a3 := g[0].at, g[1].at, g[2].at, g[3].at
			// Tournament: the lower index wins a tie, so the pick matches
			// the generic loop's whenever the winning instant is unique.
			m01, m23 := min(a0, a1), min(a2, a3)
			j01, j23 := b2i(a1 < a0), 2+b2i(a3 < a2)
			j := j01 + b2i(m23 < m01)*(j23-j01)
			m := min(m01, m23)
			if x.at < m {
				break
			}
			if b2i(x.at == m)+b2i(a0 == m)+b2i(a1 == m)+b2i(a2 == m)+b2i(a3 == m) == 1 {
				// One child alone holds the smallest instant, and x's is
				// larger: that child moves up.
				es[i] = g[j]
				i = first + j
				continue
			}
		}
		// A partial last group, or equal instants: pick on the full key.
		m := first
		for c := first + 1; c < min(first+4, n); c++ {
			if es[c].less(es[m]) {
				m = c
			}
		}
		if !es[m].less(x) {
			break
		}
		es[i] = es[m]
		i = m
	}
	es[i] = x
}

// heapify restores heap order over arbitrary entries (Floyd): sift down
// every internal node, the last one being the parent of the last entry.
func (h *heapQueue) heapify() {
	for i := (len(h.es) - 2) / 4; len(h.es) > 1 && i >= 0; i-- {
		h.down(i)
	}
}

func (h *heapQueue) reset(recycle func(*event)) {
	for _, e := range h.es {
		recycle(e.ev)
	}
	clear(h.es)
	h.es = h.es[:0]
}
