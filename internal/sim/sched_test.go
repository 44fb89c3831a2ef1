package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refEvent is one event as the brute-force reference sees it: its position
// in the total order, derived by the test from the scheduling rules
// documented on eventLess, and its outcome.
type refEvent struct {
	at, vins, vins2  Time
	vseq2, seq       uint64
	ref              EventRef
	fired, cancelled bool
}

func (ev *refEvent) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%d)", ev.at, ev.vins, ev.vins2, ev.vseq2, ev.seq)
}

// refCheck shadows an Engine with a brute-force reference queue. Every At,
// AtPinned, Cancel and Run goes to both; each firing must be the first
// pending reference event after a sort.SliceStable on
// (at, vins, vins2, vseq2, seq), and the clock must match the reference's.
type refCheck struct {
	t       *testing.T
	e       *Engine
	now     Time
	seq     uint64
	cur     *refEvent // the event whose handler is running, nil outside Step
	pending []*refEvent
	fired   int
	// onFire, when set, runs inside every handler after the order check,
	// so a workload can schedule and cancel from within the simulation.
	onFire func(*refEvent)
}

func newRefCheck(t *testing.T) *refCheck { return &refCheck{t: t, e: NewEngine()} }

// checkQueue asserts the queue's own invariants: every entry carries its
// event's instant, and no heap entry sorts before its parent. In the deep
// layout, heap entries are at or before base; every bucket entry is after
// base and sits in the bucket bucketOf gives it; every block of a chain
// but the first is full; and the masks name exactly the non-empty buckets.
// In either layout, size is the heap plus the buckets.
func (c *refCheck) checkQueue() {
	c.t.Helper()
	q := &c.e.queue
	for i, x := range q.es {
		if x.at != x.ev.at {
			c.t.Fatalf("heap entry %d has instant %v, its event %v", i, x.at, x.ev.at)
		}
		if i > 0 && x.less(q.es[(i-1)/4]) {
			c.t.Fatalf("heap entry %d sorts before its parent", i)
		}
		if q.deep && x.at > q.base {
			c.t.Fatalf("heap entry %d at %v is after base %v", i, x.at, q.base)
		}
	}
	if q.radix == nil {
		if q.deep || q.nb != 0 {
			c.t.Fatalf("no buckets, yet deep %v and %d bucket entries", q.deep, q.nb)
		}
		return
	}
	queued := 0
	for l := range q.buckets {
		for d, b := range q.buckets[l] {
			n := int(q.fill[l][d])
			if b == nil && n != 0 || b != nil && (n < 1 || n > blockLen) {
				c.t.Fatalf("bucket (%d,%d) has %d entries in its first block", l, d, n)
			}
			if (b != nil) != (q.digits[l]>>d&1 == 1) {
				c.t.Fatalf("bucket (%d,%d): digit mask %016b disagrees", l, d, q.digits[l])
			}
			for ; b != nil; b, n = b.next, blockLen {
				for _, x := range b.es[:n] {
					queued++
					if x.at != x.ev.at {
						c.t.Fatalf("bucket (%d,%d) entry has instant %v, its event %v", l, d, x.at, x.ev.at)
					}
					if !q.deep || x.at <= q.base {
						c.t.Fatalf("bucket (%d,%d) holds %v with base %v (deep %v)", l, d, x.at, q.base, q.deep)
					}
					if bl, bd := q.bucketOf(x.at); bl != l || bd != d {
						c.t.Fatalf("entry at %v sits in bucket (%d,%d), belongs in (%d,%d)", x.at, l, d, bl, bd)
					}
				}
			}
		}
		if (q.digits[l] != 0) != (q.levels>>l&1 == 1) {
			c.t.Fatalf("level %d: level mask %016b disagrees", l, q.levels)
		}
	}
	if queued != q.nb || q.size() != len(q.es)+queued {
		c.t.Fatalf("size %d, nb %d; the heap holds %d and the buckets %d", q.size(), q.nb, len(q.es), queued)
	}
}

func (c *refCheck) add(ev *refEvent) {
	ev.seq = c.seq
	c.seq++
	c.pending = append(c.pending, ev)
}

// at mirrors Engine.At: the instant is clamped to now, the event is
// inserted at now, and its inserting context is the running handler's
// (vins, seq), or (now, own seq) outside any handler.
func (c *refCheck) at(at Time) *refEvent {
	ev := &refEvent{at: max(at, c.now), vins: c.now}
	c.add(ev)
	if c.cur != nil {
		ev.vins2, ev.vseq2 = c.cur.vins, c.cur.seq
	} else {
		ev.vins2, ev.vseq2 = c.now, ev.seq
	}
	ev.ref = c.e.At(at, func() { c.fire(ev) })
	c.checkQueue()
	return ev
}

// pinned mirrors Engine.AtPinned, clamps included.
func (c *refCheck) pinned(at, vins, vins2 Time, vseq2 uint64) *refEvent {
	ev := &refEvent{at: max(at, c.now), vseq2: vseq2}
	ev.vins = min(vins, ev.at)
	ev.vins2 = min(vins2, ev.vins)
	c.add(ev)
	ev.ref = c.e.AtPinned(at, vins, vins2, vseq2, func() { c.fire(ev) })
	c.checkQueue()
	return ev
}

func (c *refCheck) cancel(ev *refEvent) {
	c.e.Cancel(ev.ref)
	c.checkQueue()
	if ev.fired || ev.cancelled {
		return // a late Cancel is a no-op
	}
	ev.cancelled = true
	for i, p := range c.pending {
		if p == ev {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

func (c *refCheck) fire(ev *refEvent) {
	c.checkQueue()
	sort.SliceStable(c.pending, func(i, j int) bool {
		a, b := c.pending[i], c.pending[j]
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
	})
	if len(c.pending) == 0 || c.pending[0] != ev {
		c.t.Fatalf("engine fired %v; reference order is %v", ev, c.pending[:min(len(c.pending), 3)])
	}
	c.pending = c.pending[1:]
	ev.fired = true
	c.fired++
	c.now = ev.at
	if got := c.e.Now(); got != ev.at {
		c.t.Fatalf("clock %v while firing %v", got, ev)
	}
	c.cur = ev
	if c.onFire != nil {
		c.onFire(ev)
	}
	c.cur = nil
}

// run mirrors Engine.Run: everything due by the horizon fires, and a
// finite horizon moves the clock forward to it but never back.
func (c *refCheck) run(until Time) {
	c.t.Helper()
	if err := c.e.Run(until); err != nil {
		c.t.Fatal(err)
	}
	c.checkQueue()
	for _, ev := range c.pending {
		if ev.at <= until {
			c.t.Fatalf("%v still pending after Run(%v)", ev, until)
		}
	}
	if until != MaxTime && until > c.now {
		c.now = until
	}
	if c.e.Now() != c.now || c.e.Pending() != len(c.pending) {
		c.t.Fatalf("after Run(%v): now=%v pending=%d, reference now=%v pending=%d",
			until, c.e.Now(), c.e.Pending(), c.now, len(c.pending))
	}
}

// TestSchedulersAgree checks the heap against the brute-force reference on
// randomized workloads: clustered and far-flung instants, instants in the
// past, explicit AtPinned positions (clamps included), batch cancels dense
// enough to trigger compaction sweeps, and stepwise horizons, some of them
// behind the clock.
func TestSchedulersAgree(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		c := newRefCheck(t)
		schedule := func() *refEvent {
			var at Time
			switch rng.Intn(5) {
			case 0:
				at = c.now + Time(rng.Intn(3)) // heavy ties
			case 1:
				at = c.now + Time(rng.Intn(1000))
			case 2:
				at = c.now + Time(rng.Int63n(int64(Second)))
			case 3:
				at = c.now + Time(rng.Int63n(int64(1000*Second)))
			default:
				at = c.now - Time(rng.Intn(1000)) // in the past: clamped
			}
			if rng.Intn(3) > 0 {
				return c.at(at)
			}
			// A pin near the instant, sometimes past it (clamped), with an
			// inserting context drawn from sequence numbers already issued.
			vins := at - Time(rng.Intn(5)) + 2
			vins2 := vins - Time(rng.Intn(5)) + 1
			return c.pinned(at, vins, vins2, uint64(rng.Int63n(int64(c.seq)+1)))
		}
		var evs []*refEvent
		for i, n := 0, 200+rng.Intn(400); i < n; i++ {
			evs = append(evs, schedule())
		}
		// Cancel densities from none to nearly all, so some trials
		// compact the queue at many different sizes.
		density := rng.Intn(10)
		for _, ev := range evs {
			if rng.Intn(10) < density {
				c.cancel(ev)
			}
		}
		c.onFire = func(*refEvent) {
			if c.seq < 1500 && rng.Intn(2) == 0 {
				schedule()
			}
			if len(c.pending) > 0 && rng.Intn(4) == 0 {
				c.cancel(c.pending[rng.Intn(len(c.pending))])
			}
		}
		// Stepwise horizons, some behind the clock.
		for i := 0; i < 4; i++ {
			c.run(c.now + Time(rng.Int63n(int64(100*Second))) - 20*Second)
		}
		c.run(MaxTime)
		if c.fired == 0 {
			t.Fatalf("trial %d fired nothing", trial)
		}
	}

	t.Run("far-future", func(t *testing.T) {
		// A handful of events separated by enormous gaps, scheduled in
		// reverse.
		c := newRefCheck(t)
		ats := []Time{0, 1, 1000 * Second, 2000 * Second, MaxTime / 2, MaxTime - 1}
		for i := len(ats) - 1; i >= 0; i-- {
			c.at(ats[i])
		}
		c.run(MaxTime)
		if c.fired != len(ats) {
			t.Fatalf("fired %d of %d events", c.fired, len(ats))
		}
	})

	t.Run("sweep", func(t *testing.T) {
		// Live events queued in descending order behind earlier ones that
		// are then all cancelled: the compaction sweep leaves the live
		// events in reverse order, so only a complete heap rebuild fires
		// them right. Every live count modulo four is covered.
		for n := 1; n <= 20; n++ {
			c := newRefCheck(t)
			var doomed []*refEvent
			for i := 0; i < compactMin; i++ {
				doomed = append(doomed, c.at(Time(i)))
			}
			for i := 0; i < n; i++ {
				c.at(Time(1000 - i))
			}
			for _, ev := range doomed {
				c.cancel(ev)
			}
			c.run(MaxTime)
			if c.fired != n {
				t.Fatalf("n=%d: fired %d events", n, c.fired)
			}
		}
	})

	t.Run("ties", func(t *testing.T) {
		// Every event on one of three instants, so most child groups tie
		// and sift on the full key. Queue sizes 1–64 cover every residue
		// mod 4: full groups of four and partial last groups.
		instants := [3]Time{10, 20, 30}
		for n := 1; n <= 64; n++ {
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(100*n + trial)))
				c := newRefCheck(t)
				schedule := func() *refEvent {
					at := instants[rng.Intn(3)]
					if rng.Intn(3) > 0 {
						return c.at(at)
					}
					vins := instants[rng.Intn(3)]
					return c.pinned(at, vins, vins-Time(rng.Intn(2))*10, uint64(rng.Int63n(int64(c.seq)+1)))
				}
				var evs []*refEvent
				for i := 0; i < n; i++ {
					evs = append(evs, schedule())
				}
				for _, ev := range evs {
					if rng.Intn(4) == 0 {
						c.cancel(ev)
					}
				}
				c.onFire = func(*refEvent) {
					if c.seq < uint64(3*n) && rng.Intn(2) == 0 {
						schedule()
					}
					if len(c.pending) > 0 && rng.Intn(4) == 0 {
						c.cancel(c.pending[rng.Intn(len(c.pending))])
					}
				}
				c.run(instants[0])
				c.run(MaxTime)
			}
		}
	})

	t.Run("earlier-push", func(t *testing.T) {
		// Events pushed below a minimum the engine already peeked at.
		c := newRefCheck(t)
		c.at(100 * Millisecond)
		c.run(Millisecond)
		c.at(50 * Millisecond)
		c.at(2 * Millisecond)
		c.run(MaxTime)
		if c.fired != 3 {
			t.Fatalf("fired %d of 3 events", c.fired)
		}
	})

	t.Run("deep", func(t *testing.T) {
		// Queues past deepQueue: the switch to buckets, a sweep while
		// bucketed, handlers that push and cancel while the buckets refill
		// the heap, a horizon that stops before a peeked event (which
		// moves base past the clock) followed by pushes before base, and
		// the drain that folds the queue back into the heap.
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(trial) + 500))
			c := newRefCheck(t)
			q := &c.e.queue
			schedule := func() *refEvent {
				var at Time
				switch rng.Intn(4) {
				case 0:
					at = c.now + Time(rng.Intn(4)) // ties
				case 1:
					at = c.now + Time(rng.Int63n(int64(Millisecond)))
				case 2:
					at = c.now + Time(rng.Int63n(int64(Second)))
				default:
					at = c.now + Time(rng.Int63n(int64(100*Second)))
				}
				if rng.Intn(4) > 0 {
					return c.at(at)
				}
				return c.pinned(at, at-Time(rng.Intn(3)), at-Time(rng.Intn(5)), uint64(rng.Int63n(int64(c.seq)+1)))
			}
			var evs []*refEvent
			for i := 0; i < 3*deepQueue; i++ {
				evs = append(evs, schedule())
			}
			if !q.deep {
				t.Fatalf("trial %d: %d queued events left the queue shallow", trial, q.size())
			}
			// Cancel about 60%: the sweep runs once cancelled entries
			// outnumber the live ones, which leaves the queue deep.
			for _, ev := range evs {
				if rng.Intn(5) < 3 {
					c.cancel(ev)
				}
			}
			if q.size() >= len(evs) || !q.deep {
				t.Fatalf("trial %d: no sweep while bucketed (size %d, deep %v)", trial, q.size(), q.deep)
			}
			var sawDeep, sawFold bool
			c.onFire = func(*refEvent) {
				if q.deep {
					sawDeep = true
				} else if sawDeep {
					sawFold = true
				}
				if c.seq < 4*deepQueue && rng.Intn(3) > 0 {
					schedule()
				}
				if len(c.pending) > 0 && rng.Intn(4) == 0 {
					c.cancel(c.pending[rng.Intn(len(c.pending))])
				}
			}
			// Fire a few hundred events, then stop one nanosecond short of
			// the next pending event: Run's peek has moved base onto it.
			c.run(c.now + Second/2)
			next := MaxTime
			for _, ev := range c.pending {
				next = min(next, ev.at)
			}
			if !q.deep || next == MaxTime || next <= c.now+1 {
				t.Fatalf("trial %d: no gap before the next event at %v (now %v, deep %v)", trial, next, c.now, q.deep)
			}
			c.run(next - 1)
			if q.base < next {
				t.Fatalf("trial %d: base %v behind the peeked event at %v", trial, q.base, next)
			}
			// Pushes at and before base, from outside any handler, as the
			// shard exchange schedules arrivals.
			for k := 0; k < 8; k++ {
				c.at(c.now + Time(rng.Int63n(int64(q.base-c.now)+1)))
			}
			c.run(MaxTime)
			if !sawDeep || !sawFold || q.deep {
				t.Fatalf("trial %d: deep %v, then folded %v; deep at the end %v", trial, sawDeep, sawFold, q.deep)
			}
		}
	})

	t.Run("reset-deep", func(t *testing.T) {
		// Reset a bucketed engine, then replay a deep workload on it
		// against the reference.
		e := NewEngine()
		fn := func() {}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2*deepQueue; i++ {
			e.Schedule(Time(rng.Int63n(int64(Second))), fn)
		}
		if err := e.Run(Second / 4); err != nil {
			t.Fatal(err)
		}
		if !e.queue.deep {
			t.Fatalf("%d queued events left the queue shallow", e.queue.size())
		}
		e.Reset()
		c := &refCheck{t: t, e: e}
		c.checkQueue()
		if e.queue.deep || e.queue.size() != 0 {
			t.Fatalf("after Reset: deep %v, size %d", e.queue.deep, e.queue.size())
		}
		for i := 0; i < 2*deepQueue; i++ {
			c.at(Time(rng.Int63n(int64(Second))))
		}
		c.run(MaxTime)
		if c.fired != 2*deepQueue {
			t.Fatalf("fired %d of %d events", c.fired, 2*deepQueue)
		}
	})
}

// TestSchedulersAgreeOnline checks the heap against the reference when
// handlers do the scheduling, as real simulations do: cascades of At and
// AtPinned events at and after the firing instant, with cancels of
// arbitrary pending events from inside handlers.
func TestSchedulersAgreeOnline(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(42 + int64(trial)))
		c := newRefCheck(t)
		depth := map[*refEvent]int{}
		spawn := func(d int) {
			at := c.now + Time(rng.Int63n(int64(Millisecond)))
			if rng.Intn(4) == 0 {
				at = c.now // same-instant insertion
			}
			var ev *refEvent
			if rng.Intn(3) == 0 {
				ev = c.pinned(at, at-Time(rng.Intn(3)), c.now, uint64(rng.Int63n(int64(c.seq)+1)))
			} else {
				ev = c.at(at)
			}
			depth[ev] = d
		}
		c.onFire = func(ev *refEvent) {
			if d := depth[ev]; d < 4 {
				for k := rng.Intn(4); k > 0; k-- {
					spawn(d + 1)
				}
			}
			if len(c.pending) > 0 && rng.Intn(5) == 0 {
				c.cancel(c.pending[rng.Intn(len(c.pending))])
			}
		}
		for i := 0; i < 64; i++ {
			c.at(Time(rng.Int63n(int64(Second))))
		}
		c.run(MaxTime)
	}
}

// FuzzSchedulerOrder drives the heap and the brute-force reference with
// operations decoded from the input, on instants drawn from a small set so
// that ties are the rule. Each operation is two bytes, an opcode and an
// argument:
//   - At an instant, clamped to the clock when past;
//   - AtPinned with a position drawn from the same set;
//   - Cancel of a pending event;
//   - At an instant of an event whose handler schedules up to three more;
//   - Run to a horizon from the set;
//   - At for deepQueue+1 events, at most twice per input, which takes the
//     queue past its depth threshold: instants from the set, each plus an
//     offset up to about a microsecond, so bucketed entries tie too.
//
// The input ends with a drain.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 1, 0, 0})
	f.Add([]byte{3, 0xff, 3, 0x10, 1, 0x21, 2, 7, 4, 2, 0, 0, 3, 0x33})
	f.Add([]byte{1, 0x12, 1, 0x34, 1, 0x56, 0, 4, 2, 0, 2, 1, 4, 3, 3, 0x0f})
	f.Add([]byte{5, 0x37, 2, 9, 4, 1, 3, 0xc5, 5, 0x80, 1, 0x2e, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		instants := [4]Time{0, 1, 2, 1000}
		c := newRefCheck(t)
		children := map[*refEvent]byte{}
		c.onFire = func(ev *refEvent) {
			arg, ok := children[ev]
			if !ok {
				return
			}
			for k := arg >> 6; k > 0; k-- {
				c.at(c.now + instants[arg>>(2*k)&3])
			}
		}
		arg := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		bulks := 0
		for i := 0; i < len(data) && i < 1024; i += 2 {
			op, a := data[i], arg(i+1)
			switch op % 6 {
			case 0:
				c.at(instants[a&3])
			case 1:
				c.pinned(instants[a&3], instants[a>>2&3], instants[a>>4&3], uint64(a>>6))
			case 2:
				if len(c.pending) > 0 {
					c.cancel(c.pending[int(a)%len(c.pending)])
				}
			case 3:
				children[c.at(instants[a&3])] = a
			case 4:
				c.run(instants[a&3])
			case 5:
				if bulks++; bulks <= 2 {
					for k := 0; k <= deepQueue; k++ {
						c.at(instants[(int(a)+k)&3] + Time(int(a)*k%1021))
					}
				}
			}
		}
		c.run(MaxTime)
	})
}

// TestEventRefGenerationSafety covers stale refs: schedule→fire→recycle→
// schedule into the same slot, then check Cancel through the stale ref
// leaves the slot's new occupant live and firing.
func TestEventRefGenerationSafety(t *testing.T) {
	// The subtest names the engine's 4-ary heap, the only scheduler.
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()

		fired := false
		ref1 := e.Schedule(1, func() { fired = true })
		if !e.Step() || !fired {
			t.Fatal("first event did not fire")
		}

		// The free list guarantees the recycled slot is reused next.
		fired2 := false
		ref2 := e.Schedule(1, func() { fired2 = true })
		if ref2.ev != ref1.ev {
			t.Fatal("slot was not recycled into the next schedule")
		}
		if ref2.gen == ref1.gen {
			t.Fatal("recycled slot did not advance its generation")
		}

		// Cancel through the stale ref must not touch the new occupant.
		e.Cancel(ref1)
		if e.Pending() != 1 {
			t.Fatalf("Pending = %d after stale Cancel, want 1", e.Pending())
		}
		if !e.Step() || !fired2 {
			t.Fatal("Cancel via stale ref cancelled the slot's new occupant")
		}

		// Cancel a live event and recycle the slot once more: neither
		// stale ref reaches the third occupant.
		ref3 := e.Schedule(1, func() { t.Fatal("cancelled event fired") })
		if ref3.ev != ref1.ev {
			t.Fatal("slot was not recycled into the third schedule")
		}
		e.Cancel(ref3)
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after Cancel, want 0", e.Pending())
		}
		e.Step() // pops + recycles the cancelled slot
		fired4 := false
		ref4 := e.Schedule(1, func() { fired4 = true })
		if ref4.ev != ref3.ev {
			t.Fatal("cancelled slot was not recycled")
		}
		e.Cancel(ref1)
		e.Cancel(ref2)
		e.Cancel(ref3)
		if e.Pending() != 1 {
			t.Fatalf("Pending = %d after stale Cancels, want 1", e.Pending())
		}
		if !e.Step() || !fired4 {
			t.Fatal("stale refs cancelled the slot's fourth occupant")
		}
	})
}

// TestEngineReset checks a reset engine replays a workload identically to a
// fresh one, without consulting wall time or leaking prior state.
func TestEngineReset(t *testing.T) {
	// The subtest names the engine's 4-ary heap, the only scheduler.
	t.Run("heap", func(t *testing.T) {
		run := func(e *Engine) []int {
			var order []int
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				id := i
				ref := e.Schedule(Time(rng.Int63n(int64(Second))), func() { order = append(order, id) })
				if rng.Intn(4) == 0 {
					e.Cancel(ref)
				}
			}
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
			return order
		}
		e := NewEngine()
		first := run(e)

		// Leave junk queued, then reset mid-flight.
		pending := e.Schedule(5, func() { t.Fatal("event survived Reset") })
		e.Reset()
		if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
			t.Fatalf("after Reset: now=%v pending=%d processed=%d", e.Now(), e.Pending(), e.Processed())
		}
		e.Cancel(pending) // stale after Reset: a no-op
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after a stale Cancel, want 0", e.Pending())
		}
		second := run(e)
		if len(first) != len(second) {
			t.Fatalf("replay length %d != %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay diverges at %d: %d != %d", i, second[i], first[i])
			}
		}
	})
}

// TestZeroAllocHotPath enforces the steady-state allocation ceilings from
// the acceptance criteria: Schedule, Step, and Cancel must not allocate
// once the free list and queue capacity are warm, in either queue layout.
func TestZeroAllocHotPath(t *testing.T) {
	// A shallow queue: the plain 4-ary heap.
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fn := func() {}
		// Warm-up: grow the free list and queue capacity past anything the
		// measured loop needs.
		for i := 0; i < 4096; i++ {
			e.Schedule(Time(i%97)*Microsecond, fn)
		}
		for e.Step() {
		}

		// Every other firing defers work, as a packet release does.
		deferring := func() { e.Defer(fn) }
		var tick Time
		allocs := testing.AllocsPerRun(200, func() {
			for i := 0; i < 16; i++ {
				tick += Microsecond
				keep := e.At(tick, fn)
				e.At(tick, deferring)
				dead := e.At(tick+Microsecond, fn)
				e.Cancel(dead)
				_ = keep
			}
			for e.Step() {
			}
		})
		if allocs != 0 {
			t.Fatalf("Schedule/Cancel/Step/Defer steady state allocates %.1f times per run, want 0", allocs)
		}
	})
	// A deep queue: about four times deepQueue pending over a second, so
	// pushes land in buckets, pops refill the heap from them and cancels
	// sweep the buckets.
	t.Run("deep", func(t *testing.T) {
		e := NewEngine()
		fn := func() {}
		var tick Time
		next := func() Time {
			tick++
			return e.Now() + Time(tick*7919%1000)*Millisecond + Time(tick%13)
		}
		churn := func() {
			for i := 0; i < 16; i++ {
				e.At(next(), fn)
				e.Cancel(e.At(next(), fn))
				e.Step()
			}
		}
		for i := 0; i < 4*deepQueue; i++ {
			e.At(next(), fn)
		}
		for i := 0; i < 1000; i++ {
			churn()
		}
		if !e.queue.deep {
			t.Fatalf("%d queued events left the queue shallow", e.queue.size())
		}
		if allocs := testing.AllocsPerRun(200, churn); allocs != 0 {
			t.Fatalf("deep-queue Schedule/Cancel/Step steady state allocates %.1f times per run, want 0", allocs)
		}
		if !e.queue.deep {
			t.Fatal("the measured churn left the deep layout")
		}
	})
}

// TestDefer checks the post-handler list: deferred work runs right after
// the handler that deferred it, before any other event, and nothing
// deferred outside a handler runs early or survives a Reset.
func TestDefer(t *testing.T) {
	t.Run("after-handler-before-next-event", func(t *testing.T) {
		e := NewEngine()
		var log []string
		e.Schedule(Millisecond, func() {
			e.Defer(func() { log = append(log, "deferred-a") })
			// Already queued for the same instant, and scheduled from the
			// handler for it: both still fire after the deferred work.
			e.Schedule(0, func() { log = append(log, "scheduled") })
			e.Defer(func() { log = append(log, "deferred-b") })
			log = append(log, "handler")
		})
		e.Schedule(Millisecond, func() { log = append(log, "queued") })
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		want := []string{"handler", "deferred-a", "deferred-b", "queued", "scheduled"}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("order %v, want %v", log, want)
		}
		if e.Processed() != 3 {
			t.Fatalf("processed %d events, want 3: deferred work is not an event", e.Processed())
		}
	})
	t.Run("deferred-from-deferred", func(t *testing.T) {
		e := NewEngine()
		var log []int
		var chain func(int) Handler
		chain = func(n int) Handler {
			return func() {
				log = append(log, n)
				if n < 3 {
					e.Defer(chain(n + 1))
				}
			}
		}
		e.Schedule(0, func() { e.Defer(chain(1)) })
		e.Schedule(0, func() { log = append(log, 0) })
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 2, 3, 0}; !reflect.DeepEqual(log, want) {
			t.Fatalf("order %v, want %v", log, want)
		}
	})
	t.Run("outside-handler-waits-for-next-firing", func(t *testing.T) {
		e := NewEngine()
		ran := false
		e.Defer(func() { ran = true })
		if ran {
			t.Fatal("deferred work ran outside any handler")
		}
		sawDuring := true
		e.Schedule(Second, func() { sawDuring = ran })
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if sawDuring || !ran {
			t.Fatalf("ran during handler %v, after %v; want false, true", sawDuring, ran)
		}
	})
	t.Run("reset-drops-pending", func(t *testing.T) {
		e := NewEngine()
		e.Defer(func() { t.Fatal("deferred work survived Reset") })
		e.Reset()
		e.Schedule(0, func() {})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTimerResetZeroAlloc: re-arming a timer is part of the retransmission
// hot path and must not allocate either.
func TestTimerResetZeroAlloc(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	// Warm-up.
	for i := 0; i < 1024; i++ {
		tm.Reset(Millisecond)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			tm.Reset(Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("Timer.Reset steady state allocates %.1f times per run, want 0", allocs)
	}
}
