package sim

// heapQueue is the engine's event queue: a 4-ary min-heap specialized to
// *event, ordered by eventLess. It tolerates lazily-cancelled entries,
// which the engine skips and recycles on pop, or collects in bulk via
// sweep. Compared to container/heap it avoids the `any` boxing on every
// push/pop and the interface-dispatched Less/Swap calls; the 4-ary layout
// halves the tree depth, trading slightly more comparisons per level for
// far fewer cache misses on the sift path.
type heapQueue struct {
	ev []*event
}

func (h *heapQueue) size() int { return len(h.ev) }

func (h *heapQueue) peek() *event {
	if len(h.ev) == 0 {
		return nil
	}
	return h.ev[0]
}

func (h *heapQueue) push(ev *event) {
	h.ev = append(h.ev, ev)
	h.up(len(h.ev) - 1)
}

func (h *heapQueue) pop() *event {
	n := len(h.ev)
	if n == 0 {
		return nil
	}
	top := h.ev[0]
	last := h.ev[n-1]
	h.ev[n-1] = nil
	h.ev = h.ev[:n-1]
	if n > 1 {
		h.ev[0] = last
		h.down(0)
	}
	return top
}

func (h *heapQueue) up(i int) {
	ev := h.ev[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h.ev[parent]
		if !eventLess(ev, p) {
			break
		}
		h.ev[i] = p
		i = parent
	}
	h.ev[i] = ev
}

func (h *heapQueue) down(i int) {
	n := len(h.ev)
	ev := h.ev[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h.ev[c], h.ev[min]) {
				min = c
			}
		}
		if !eventLess(h.ev[min], ev) {
			break
		}
		h.ev[i] = h.ev[min]
		i = min
	}
	h.ev[i] = ev
}

// sweep removes every cancelled event in O(n): compact the live events in
// place, then rebuild the heap bottom-up (Floyd).
func (h *heapQueue) sweep(recycle func(*event)) {
	live := h.ev[:0]
	for _, ev := range h.ev {
		if ev.cancel {
			recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	// Clear the tail so recycled slots aren't retained by the backing array.
	for i := len(live); i < len(h.ev); i++ {
		h.ev[i] = nil
	}
	h.ev = live
	// Sift down every internal node; the last one is the parent of the
	// last element.
	for i := (len(h.ev) - 2) / 4; len(h.ev) > 1 && i >= 0; i-- {
		h.down(i)
	}
}

func (h *heapQueue) reset(recycle func(*event)) {
	for i, ev := range h.ev {
		recycle(ev)
		h.ev[i] = nil
	}
	h.ev = h.ev[:0]
}
