package sim

import "slices"

// Lane is a declared event source: a stream whose events are pushed in
// the engine's order, so the engine can keep them in a FIFO instead of its
// heap. One link direction's deliveries, one cross-shard port's arrivals
// and the re-arms of every ticker of one period are such streams.
//
// An event pushed into a lane (ScheduleIn, AtIn, AtPinnedIn) joins it only
// when its full ordering key is not below the lane's last entry; any other
// push goes where an undeclared one would. The engine merges the lanes'
// heads with its heap on every step, so a lane changes where an event
// waits, never when it fires: a wrong declaration costs speed, not order.
//
// The zero Lane declares nothing. A Lane is bound to the engine run that
// declared it: after Engine.Reset it declares nothing either, and on
// another engine it names whichever lane holds its id there, if any, which
// again costs speed, not order.
type Lane struct {
	// id is the lane's index in eventQueue.lanes plus one; 0 declares
	// nothing, and 1 is the set-up lane, which no handle names.
	id uint32
	// gen is the queue's generation at declaration, which Reset advances.
	gen uint32
}

// eventQueue is the engine's event queue: a heap for undeclared events
// and one FIFO per lane, with the head of every non-empty lane in a second,
// small heap. The queue's minimum is the smaller of the two heaps' tops on
// the full key. Lane entries are sorted and the key is unique, so the
// queue fires the same total order as one heap of every entry would.
//
// The queue tolerates lazily-cancelled entries, which the engine skips and
// recycles on pop, or collects in bulk via sweep.
type eventQueue struct {
	heapQueue
	// heads holds the head of every non-empty lane; lanes[0] is the
	// set-up lane, and lanes[id-1] the lane a Lane with that id names.
	heads heapQueue
	lanes []lane
	// gen advances on every reset, which retires every Lane handle.
	gen uint32
	// unsorted counts the set-up lane's tail entries that arrived since
	// its last sort; nl counts the entries of every lane.
	unsorted, nl int
}

func (q *eventQueue) size() int { return len(q.es) + q.nl }

// peek returns the earliest queued event, or nil when nothing is queued.
// pop then removes that event: the engine pops only after a peek found
// one.
func (q *eventQueue) peek() *event {
	if q.unsorted != 0 {
		q.sortSetup()
	}
	h, m := q.heads.es, q.es
	switch {
	case len(h) == 0:
		if len(m) == 0 {
			return nil
		}
		return m[0].ev
	case len(m) == 0 || h[0].less(m[0]):
		return h[0].ev
	}
	return m[0].ev
}

// pop removes ev, the event the last peek returned.
func (q *eventQueue) pop(ev *event) {
	if ev.lane != 0 {
		q.popLane(ev.lane)
	} else {
		q.heapQueue.pop()
	}
}

// sweep removes every cancelled event in O(n): compact the lanes and the
// heap in place, then rebuild both heaps bottom-up.
func (q *eventQueue) sweep(recycle func(*event)) {
	q.sweepLanes(recycle)
	live := q.es[:0]
	for _, x := range q.es {
		if x.ev.cancel {
			recycle(x.ev)
		} else {
			live = append(live, x)
		}
	}
	q.truncate(len(live))
	q.heapify()
}

// reset recycles every queued event and retires every lane, keeping the
// heaps' and the lanes' capacity.
func (q *eventQueue) reset(recycle func(*event)) {
	q.heapQueue.reset(recycle)
	q.resetLanes(recycle)
}

// lane is one FIFO of queue entries sorted by heapEntry.less: es[h:] are
// queued, es[:h] popped. Its storage is taken on the first append.
type lane struct {
	es []heapEntry
	h  int
}

// setupLane is the id of the set-up lane, where every push made while no
// handler runs lands unless a declared lane takes it: a topology's first
// ticks and its scheduled stops, an exchange's arrivals. Those pushes come
// in no useful order, so the lane sorts what arrived since the last peek
// on the next one (sortSetup).
const setupLane = 1

// newLane declares a lane, reusing the storage of one a Reset retired.
func (q *eventQueue) newLane() Lane {
	q.ensureSetup()
	if n := len(q.lanes); n < cap(q.lanes) {
		q.lanes = q.lanes[:n+1]
	} else {
		q.lanes = append(q.lanes, lane{})
	}
	return Lane{id: uint32(len(q.lanes)), gen: q.gen}
}

// ensureSetup makes the set-up lane, lanes[0], exist.
func (q *eventQueue) ensureSetup() {
	if len(q.lanes) == 0 {
		q.lanes = append(q.lanes, lane{})
	}
}

// push queues ev: in lane l when l is live and ev does not sort before its
// tail, else in the set-up lane when no handler runs, else in the heap.
func (q *eventQueue) push(ev *event, l Lane, firing bool) {
	x := heapEntry{at: ev.at, ev: ev}
	if l.id-1 < uint32(len(q.lanes)) && l.gen == q.gen {
		if ln := &q.lanes[l.id-1]; ln.h == len(ln.es) || !x.less(ln.es[len(ln.es)-1]) {
			if ln.h == len(ln.es) {
				q.heads.push(x)
			}
			q.append(ln, l.id, x)
			return
		}
	}
	if !firing {
		q.ensureSetup()
		q.unsorted++
		q.append(&q.lanes[0], setupLane, x)
		return
	}
	ev.lane = 0
	q.heapQueue.push(x)
}

// append adds x at the tail of lane ln, which is lanes[id-1]. A full lane
// whose popped prefix is at least a quarter of it slides down; one with
// less doubles, keeping only its queued entries. A lane that never drains
// stays O(its backlog), and a growing one allocates twice its final size
// in all.
func (q *eventQueue) append(ln *lane, id uint32, x heapEntry) {
	x.ev.lane = id
	if n := len(ln.es); n == cap(ln.es) {
		live := ln.es[ln.h:]
		if 4*ln.h < n {
			ln.es = make([]heapEntry, 0, max(2*n, 16))
		}
		ln.es, ln.h = append(ln.es[:0], live...), 0
	}
	ln.es = append(ln.es, x)
	q.nl++
}

// laneKeep is the largest array a drained lane keeps for its next entries.
// A larger one, left by a burst such as a set-up wave, goes back to the
// garbage collector.
const laneKeep = 1024

// popLane removes the head of lane id, which is the top of heads: the
// lane's next entry replaces it there, or it leaves heads when the lane
// drains. Popped slots are not cleared: every event belongs to the
// engine's free list when it is not queued, so they keep nothing alive.
func (q *eventQueue) popLane(id uint32) {
	ln := &q.lanes[id-1]
	ln.h++
	q.nl--
	if ln.h == len(ln.es) {
		ln.es, ln.h = ln.es[:0], 0
		if cap(ln.es) > laneKeep {
			ln.es = nil
		}
		q.heads.pop()
		return
	}
	q.heads.es[0] = ln.es[ln.h]
	q.heads.down(0)
}

// compareEntries is heapEntry.less as a three-way comparison.
func compareEntries(a, b heapEntry) int {
	switch {
	case a.ev == b.ev:
		return 0
	case a.less(b):
		return -1
	}
	return 1
}

// sortSetup sorts the set-up lane's unsorted tail. The entries that sort
// at or after the lane's last sorted one stay behind it, and the others go
// to the heap: a merge would move every sorted entry after them, and a
// caller that pushes between steps would pay that on every push. A
// set-up wave still lands in an empty lane and is sorted once.
func (q *eventQueue) sortSetup() {
	s := &q.lanes[0]
	m := len(s.es) - q.unsorted
	q.unsorted = 0
	tail := s.es[m:]
	slices.SortFunc(tail, compareEntries)
	if m == s.h {
		q.heads.push(tail[0])
		return
	}
	k := 0
	for ; k < len(tail) && tail[k].less(s.es[m-1]); k++ {
		tail[k].ev.lane = 0
		q.heapQueue.push(tail[k])
	}
	q.nl -= k
	s.es = append(s.es[:m], tail[k:]...)
}

// sweepLanes drops every cancelled entry from the lanes, keeping their
// order, and rebuilds heads.
func (q *eventQueue) sweepLanes(recycle func(*event)) {
	if q.unsorted != 0 {
		q.sortSetup()
	}
	q.heads.truncate(0)
	for i := range q.lanes {
		ln := &q.lanes[i]
		live := ln.es[:0]
		for _, x := range ln.es[ln.h:] {
			if x.ev.cancel {
				recycle(x.ev)
				q.nl--
			} else {
				live = append(live, x)
			}
		}
		clear(ln.es[len(live):])
		ln.es, ln.h = live, 0
		if len(live) > 0 {
			q.heads.add(live[0])
		}
	}
	q.heads.heapify()
}

// resetLanes recycles every lane entry and retires every lane, keeping
// their storage for the lanes the next run declares.
func (q *eventQueue) resetLanes(recycle func(*event)) {
	for i := range q.lanes {
		ln := &q.lanes[i]
		for _, x := range ln.es[ln.h:] {
			recycle(x.ev)
		}
		clear(ln.es)
		ln.es, ln.h = ln.es[:0], 0
	}
	q.lanes = q.lanes[:0]
	q.heads.truncate(0)
	q.unsorted, q.nl = 0, 0
	q.gen++
}
