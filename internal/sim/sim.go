// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in the order they were
// scheduled (stable FIFO tie-break), which makes every simulation in this
// repository reproducible bit-for-bit.
//
// The queue is one heap plus lanes (see queue.go). A lane is a FIFO for a
// declared source whose events arrive in the engine's order: a link
// direction, a cross-shard port, an AP's air directions, the tickers of one
// period, a class of fixed-delay timers. A push joins its lane only when
// its full key is not below the lane's tail, and every other push goes to
// the heap, or, made while no handler runs, to a set-up lane sorted on the
// next peek. The heads of the non-empty lanes sit in a second, small heap,
// and each step fires the smaller of the two heaps' tops. Both heaps are
// 4-ary and ordered by eventLess: each slot carries a copy of its event's
// instant, and a sift picks the smallest of four children with conditional
// moves instead of branches, consulting the full key only when instants
// tie. The order is the same total order whichever way an event waits. For
// events scheduled through Schedule/At that order is exactly the
// historical (at, seq) FIFO rule; AtPinned additionally lets a caller
// place an event at an explicit position inside an instant, so an
// analytically computed event can land precisely where an equivalent
// event-driven chain would have inserted it (see internal/netsim's links).
//
// The hot path is allocation-free in steady state: fired and cancelled
// events are recycled through a free list, and EventRefs carry a
// generation counter so a stale reference can never touch the slot's new
// occupant. Work that must wait until a handler (and every hook it calls)
// is done, such as returning dead packets to a pool, goes through Defer
// instead of a zero-delay event.
//
// ShardGroup runs several engines side by side under a conservative epoch
// protocol, one engine per shard of a partitioned model; an Exchange
// installed with SetExchange moves cross-shard traffic between rounds.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual time instant, measured in nanoseconds since the start of
// the simulation. It is deliberately distinct from time.Time: simulations
// never consult the wall clock.
type Time int64

// Common time unit helpers, mirroring the time package.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(math.MaxInt64)

// Duration converts a time.Duration into virtual time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns the instant as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the instant as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Handler is a scheduled callback. It runs with the engine clock set to the
// event's instant.
type Handler func()

// event is a single queue entry. Events are recycled through the engine's
// free list; gen counts the recycles so a stale EventRef can detect that
// its event is gone.
type event struct {
	at  Time
	seq uint64 // insertion order, breaks ties deterministically
	// (vins, vins2, vseq2) position the event inside its instant ahead of
	// the seq tie-break: vins is the virtual instant the event was
	// inserted at, and (vins2, vseq2) identify the inserting context (the
	// (vins, seq) of the event whose handler performed the insertion).
	// For events scheduled via Schedule/At these are derived so that the
	// total order collapses to the historical (at, seq) FIFO rule — see
	// eventLess. AtPinned sets them explicitly.
	vins  Time
	vins2 Time
	vseq2 uint64
	fn    Handler
	gen   uint64 // incremented every time the slot is recycled
	// lane is the id of the lane holding the event, 0 for the heap.
	lane uint32
	// fired marks the event whose handler is running, so a handler that
	// cancels its own event is a no-op; cancel marks a lazily deleted one.
	fired  bool
	cancel bool
}

// eventLess is the engine's total event order: earlier instant first, then
// insertion instant, then inserting context, then scheduling order.
//
// For events scheduled only through Schedule/At the extended key is a pure
// refinement of the historical (at, seq) rule — it never reorders them.
// Proof sketch (induction over instants): within one instant, events fire
// in key order; an event inserted by firing F gets vins = now and
// (vins2, vseq2) = (F.vins, F.seq), and since firings proceed in
// nondecreasing (vins, seq) order (the hypothesis), consecutive insertions
// carry nondecreasing (vins, vins2, vseq2) — so among equal (at, vins) the
// extended comparison still falls through to seq. Events inserted outside
// any firing get (vins2, vseq2) = (now, own seq), which slots after every
// same-instant firing context. The extension only matters for AtPinned
// events, which use it to sort exactly where an equivalent event-driven
// insertion would have.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.vins != b.vins {
		return a.vins < b.vins
	}
	if a.vins2 != b.vins2 {
		return a.vins2 < b.vins2
	}
	if a.vseq2 != b.vseq2 {
		return a.vseq2 < b.vseq2
	}
	return a.seq < b.seq
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value is valid; cancelling it is a no-op.
type EventRef struct {
	ev  *event
	gen uint64
}

// ErrStopped is returned by Run when Stop was called before the horizon.
var ErrStopped = errors.New("sim: engine stopped")

// eventBlock is how many events one free-list refill allocates. Chunked
// allocation keeps cold-start allocation counts low; in steady state the
// free list makes Schedule/Step allocation-free.
const eventBlock = 128

// compactMin is the lazy-deletion floor: a sweep is only considered once
// at least this many cancelled events are queued.
const compactMin = 64

// Engine is the discrete-event scheduler. Create one with NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	stopped bool
	// processed counts events that have fired, for diagnostics.
	processed uint64
	// live counts scheduled, not-yet-fired, not-cancelled events.
	live int
	// lazy counts cancelled events still occupying queue slots.
	lazy int
	// free is the recycled-event stack feeding At.
	free []*event
	// deferred holds the Defer callbacks Step runs once the firing
	// handler returns.
	deferred []Handler
	// Firing context: the full ordering key of the event whose handler is
	// currently running inside Step. At stamps inserted events with it,
	// and FiringKey exposes it so analytic transmitters (netsim's links,
	// wireless's radios) can resolve equal-instant ties exactly as the
	// event-driven code would have.
	firing   bool
	curVins  Time
	curVins2 Time
	curVseq2 uint64
	curSeq   uint64
	// shared maps SharedLane keys to their lanes.
	shared map[any]Lane
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return new(Engine) }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (cancelled
// events awaiting lazy collection are not counted).
func (e *Engine) Pending() int { return e.live }

// alloc takes an event slot from the free list, refilling it block-wise
// from one backing array when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	block := make([]event, eventBlock)
	for i := eventBlock - 1; i >= 1; i-- {
		e.free = append(e.free, &block[i])
	}
	return &block[0]
}

// recycle retires an event slot: the generation advances (invalidating
// extant refs) and the slot returns to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.fired = false
	ev.cancel = false
	e.free = append(e.free, ev)
}

// Schedule runs fn after the given delay. A negative delay is treated as
// zero (the event fires at the current instant, after already-queued events
// for that instant).
func (e *Engine) Schedule(delay Time, fn Handler) EventRef {
	return e.ScheduleIn(Lane{}, delay, fn)
}

// ScheduleIn is Schedule with the event declared to lane l.
func (e *Engine) ScheduleIn(l Lane, delay Time, fn Handler) EventRef {
	if delay < 0 {
		delay = 0
	}
	return e.AtIn(l, e.now+delay, fn)
}

// At runs fn at the given absolute instant. Instants in the past are clamped
// to the current time. It is AtPinned at the position an insertion made now
// gets: the running handler's context, or outside any handler a context of
// its own (see eventLess).
func (e *Engine) At(at Time, fn Handler) EventRef { return e.AtIn(Lane{}, at, fn) }

// AtIn is At with the event declared to lane l.
func (e *Engine) AtIn(l Lane, at Time, fn Handler) EventRef {
	if e.firing {
		return e.AtPinnedIn(l, at, e.now, e.curVins, e.curSeq, fn)
	}
	return e.AtPinnedIn(l, at, e.now, e.now, e.seq, fn)
}

// AtPinned runs fn at the given absolute instant with an explicitly pinned
// equal-instant position: vins is the instant an equivalent event-driven
// insertion would have happened at, and (vins2, vseq2) that insertion's
// context (see eventLess). netsim's links and wireless's radios use it to
// schedule a delivery at Send time at the position an event-driven
// txDone-then-deliver chain would have given it (DESIGN.md §12).
// Instants in the past are clamped to the current time, and the pin
// components are clamped to stay internally consistent (vins <= at,
// vins2 <= vins).
func (e *Engine) AtPinned(at, vins, vins2 Time, vseq2 uint64, fn Handler) EventRef {
	return e.AtPinnedIn(Lane{}, at, vins, vins2, vseq2, fn)
}

// AtPinnedIn is AtPinned with the event declared to lane l.
func (e *Engine) AtPinnedIn(l Lane, at, vins, vins2 Time, vseq2 uint64, fn Handler) EventRef {
	if fn == nil {
		panic("sim: event scheduled with nil handler")
	}
	if at < e.now {
		at = e.now
	}
	if vins > at {
		vins = at
	}
	if vins2 > vins {
		vins2 = vins
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.vins = vins
	ev.vins2 = vins2
	ev.vseq2 = vseq2
	ev.fn = fn
	e.seq++
	e.queue.push(ev, l, e.firing)
	e.live++
	return EventRef{ev: ev, gen: ev.gen}
}

// NewLane declares a lane of its own on the engine: a source, such as one
// link direction, whose events are pushed in the engine's order.
func (e *Engine) NewLane() Lane { return e.queue.newLane() }

// SharedLane returns the lane declared under key, declaring it on first
// use, so that sources sharing a key share a lane: every ticker of one
// period, every timer of one fixed-delay class. key must be comparable; a
// key of an unexported type keeps one package's lanes apart from
// another's. Reset forgets every key.
func (e *Engine) SharedLane(key any) Lane {
	if l, ok := e.shared[key]; ok {
		return l
	}
	if e.shared == nil {
		e.shared = make(map[any]Lane)
	}
	l := e.NewLane()
	e.shared[key] = l
	return l
}

// FiringKey returns the equal-instant ordering key (vins, vins2, vseq2,
// seq) of the event whose handler is currently running, and whether a
// handler is running at all. Analytic fast paths compare pending phantom
// events against this key to decide whether the event-driven equivalent
// would already have fired at the current instant.
func (e *Engine) FiringKey() (vins, vins2 Time, vseq2, seq uint64, firing bool) {
	return e.curVins, e.curVins2, e.curVseq2, e.curSeq, e.firing
}

// NextSeq returns the sequence number the next scheduled event will be
// assigned. Analytic fast paths snapshot it to reproduce the sequence slot
// an equivalent event-driven insertion would have consumed at this point.
func (e *Engine) NextSeq() uint64 { return e.seq }

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired, is firing now, or was already cancelled is a no-op, and so
// is cancelling through a stale ref whose slot now holds another event.
// The queue slot is deleted lazily: it is marked and skipped on pop, and
// bulk-compacted once cancelled events dominate the queue, so Cancel
// itself is O(1).
func (e *Engine) Cancel(ref EventRef) {
	ev := ref.ev
	if ev == nil || ev.gen != ref.gen || ev.fired || ev.cancel {
		return
	}
	ev.cancel = true
	e.live--
	e.lazy++
	if e.lazy >= compactMin && e.lazy*2 > e.queue.size() {
		e.lazy = 0
		e.queue.sweep(e.recycle)
	}
}

// Stop makes the current Run call return after the in-flight event handler
// completes. Calling Stop while no Run is in progress is not lost: the
// pending stop is honored (and consumed) by the next Run call, which
// returns ErrStopped without processing any events.
func (e *Engine) Stop() { e.stopped = true }

// head returns the earliest live queued event without removing it, or nil
// when none is queued. Cancelled events at the front are collected on the
// way.
func (e *Engine) head() *event {
	for {
		ev := e.queue.peek()
		if ev == nil || !ev.cancel {
			return ev
		}
		e.queue.pop(ev)
		e.lazy--
		e.recycle(ev)
	}
}

// Step fires the single earliest pending event and advances the clock to its
// instant. It reports whether an event fired.
func (e *Engine) Step() bool {
	ev := e.head()
	if ev == nil {
		return false
	}
	// eventQueue.pop, spelled out: the call it adds costs more than the
	// branches.
	if ev.lane != 0 {
		e.queue.popLane(ev.lane)
	} else {
		e.queue.heapQueue.pop()
	}
	e.now = ev.at
	e.processed++
	e.live--
	ev.fired = true
	fn := ev.fn
	e.firing = true
	e.curVins, e.curVins2, e.curVseq2, e.curSeq = ev.vins, ev.vins2, ev.vseq2, ev.seq
	fn()
	// Index loop: a deferred callback may Defer more work, which runs in
	// the same drain.
	for i := 0; i < len(e.deferred); i++ {
		d := e.deferred[i]
		e.deferred[i] = nil
		d()
	}
	e.deferred = e.deferred[:0]
	e.firing = false
	e.recycle(ev)
	return true
}

// Defer runs fn right after the currently firing handler returns, before
// the next event fires (even one already queued for the same instant).
// Callbacks run in Defer order, in the firing event's context, and a
// callback may Defer more. Called outside a handler, fn waits for the end
// of the next firing; Reset drops callbacks still waiting. Use it instead
// of a Schedule(0, fn) whose only purpose is to run after the current
// handler's observers: it takes no event, no sequence number and no heap
// push, and it does not allocate once the list has grown.
func (e *Engine) Defer(fn Handler) {
	e.deferred = append(e.deferred, fn)
}

// Run processes events until the queue is empty or the clock would pass the
// horizon. Events scheduled exactly at the horizon still fire. It returns
// ErrStopped if Stop was called, otherwise nil. A Stop issued before Run
// (including one left over from a handler that fired after its Run call
// already returned) is honored immediately: Run consumes it and returns
// ErrStopped without firing any event, so a stop is never silently lost.
func (e *Engine) Run(until Time) error {
	for {
		if e.stopped {
			e.stopped = false
			return ErrStopped
		}
		next := e.head()
		if next == nil {
			break
		}
		if next.at > until {
			// Leave the event queued; advance the clock to the horizon so
			// Now() reflects how far the simulation progressed. A horizon
			// already behind the clock never rewinds it.
			if until > e.now {
				e.now = until
			}
			return nil
		}
		e.Step()
	}
	if until != MaxTime && e.now < until {
		e.now = until
	}
	return nil
}

// RunAll processes events until the queue drains or Stop is called.
func (e *Engine) RunAll() error { return e.Run(MaxTime) }

// NextAt returns the instant of the earliest live pending event, without
// firing it. Cancelled events encountered at the head of the queue are
// collected on the way (they would be skipped by Run anyway), so the
// reported instant is exact, not an underestimate. The second result is
// false when no live event is queued. Conservative parallel runners use
// this to compute the global epoch horizon.
func (e *Engine) NextAt() (Time, bool) {
	if next := e.head(); next != nil {
		return next.at, true
	}
	return 0, false
}

// Reset returns the engine to its initial state — clock at zero, empty
// queue and Defer list, sequence counter rewound, no lane declared — while
// keeping the event free list and queue capacity, so a worker can run many
// simulation replicas without re-paying allocation warm-up. Events still
// queued are recycled unfired; refs into the previous run become stale, so
// cancelling through them is a no-op, and its lanes declare nothing in the
// next run. Because the sequence counter restarts at zero, a reset engine
// schedules events in exactly the order a fresh engine would: replica
// results are identical either way.
func (e *Engine) Reset() {
	e.queue.reset(e.recycle)
	clear(e.shared)
	clear(e.deferred)
	e.deferred = e.deferred[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.stopped = false
	e.live = 0
	e.lazy = 0
	e.firing = false
}
