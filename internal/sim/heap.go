package sim

// heapEntry is one queue slot: the event and a copy of its instant. The
// instant never changes while the event is queued, so the copy stays
// exact, and the sift loops and the lane tail checks read instants
// without touching the event.
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

// heapQueue is a 4-ary min-heap of heapEntry, ordered by eventLess: the
// engine's heap of undeclared events, and the heap of lane heads.
//
// The cost of a sift is branch misprediction, not cache misses: which of
// four children holds the smallest instant is a coin flip the predictor
// cannot learn. So down picks the smallest child of a full group of four
// with min and bool-to-int arithmetic, which compiles to conditional moves,
// and falls back to eventLess only when two candidates share the winning
// instant. On the metro workload only 3.6% of the old branchy loop's
// comparisons met two equal instants.
//
// Past its last entry the array keeps three pads, so every child group
// down reads is four entries long. A pad's instant is MaxTime: it never
// wins against an earlier instant, and a tie with it takes the slow path,
// which reads only real entries.
type heapQueue struct {
	es []heapEntry
}

// pad fills the slots past a heap's last entry.
var pad = heapEntry{at: MaxTime}

func (h *heapQueue) push(x heapEntry) {
	h.add(x)
	h.up(len(h.es) - 1)
}

// add appends x without restoring heap order, keeping three pads after it.
func (h *heapQueue) add(x heapEntry) {
	n := len(h.es)
	if n+4 > cap(h.es) {
		es := make([]heapEntry, n, max(2*cap(h.es), 16))
		copy(es, h.es)
		padFrom(es, n)
		h.es = es
	}
	h.es = h.es[:n+1]
	h.es[n] = x
}

// padFrom fills es from index i to its capacity with pads.
func padFrom(es []heapEntry, i int) {
	full := es[:cap(es)]
	for ; i < len(full); i++ {
		full[i] = pad
	}
}

// truncate drops every entry from index n on, padding their slots.
func (h *heapQueue) truncate(n int) {
	for i := n; i < len(h.es); i++ {
		h.es[i] = pad
	}
	h.es = h.es[:n]
}

func (h *heapQueue) pop() *event {
	n := len(h.es)
	if n == 0 {
		return nil
	}
	top := h.es[0].ev
	last := h.es[n-1]
	h.es[n-1] = pad
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
		{
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
		// Equal instants: pick on the full key.
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
	h.truncate(0)
}
