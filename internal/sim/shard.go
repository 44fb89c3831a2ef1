package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardGroup advances several independent engines under a conservative
// epoch-barrier protocol (null-message-free CMB). The caller partitions the
// model so each engine owns a shard and every cross-shard interaction takes
// at least `lookahead` of virtual time to arrive (for a network simulation:
// the minimum delay of any link whose endpoints live on different shards).
//
// Each round the group computes a safe horizon per shard and runs the
// shards that have work inside it; between rounds the Exchange flushes,
// single-threaded, to move buffered cross-shard traffic into the receiving
// engines' queues. In the default adaptive mode the horizons are
// widened beyond the classic fixed T+lookahead-1 epoch wherever causality
// allows (see adaptiveRound), shards with no event inside the horizon are
// never dispatched, and a round with a single live shard runs inline on the
// caller's goroutine with no barrier at all — so synchronization cost
// scales with actual cross-shard traffic, not with simulated time.
//
// Determinism: for a fixed shard partition the results are byte-identical
// regardless of worker count or which worker runs which shard, because
// shards are mutually isolated inside a round and the exchange runs alone
// in a fixed order at the barrier. The per-shard horizons (and therefore
// ShardStats) are a pure function of the engines' queues, never of worker
// scheduling.
type ShardGroup struct {
	engines   []*Engine
	lookahead Time
	workers   int
	adaptive  bool
	// exchange moves cross-shard traffic between rounds; nil when the
	// shards are independent.
	exchange Exchange

	// Scratch state reused across rounds so the loop stays allocation-free.
	// live/ends are written by the coordinator before a round is published
	// and read by workers only inside the round.
	errs    []error
	nextAts []Time
	ends    []Time
	live    []int

	stats ShardStats

	// br is the persistent worker barrier, non-nil only inside Run and only
	// when workers > 1.
	br *epochBarrier
}

// ShardStats counts the synchronization work a ShardGroup performed,
// accumulated across Run calls. Every field is a pure function of the
// model (the engines' event queues and the lookahead), never of worker
// count or scheduling, so the numbers are safe to include in golden
// outputs.
type ShardStats struct {
	// Rounds is the number of rounds that dispatched at least one shard.
	Rounds uint64
	// BarrierRounds counts rounds that dispatched two or more shards and
	// so required synchronization. With one worker the shards of such a
	// round run sequentially, but the round still counts: the metric
	// describes the model, not the execution strategy.
	BarrierRounds uint64
	// SoloRounds counts rounds with a single live shard, run inline by the
	// coordinator with no barrier at all.
	SoloRounds uint64
	// Dispatches counts individual shard runs; ElidedDispatches counts
	// shard-rounds skipped because the shard had no event inside the
	// round's horizon.
	Dispatches       uint64
	ElidedDispatches uint64
}

// NewShardGroup builds a group over the given engines. lookahead is the
// minimum cross-shard latency; values below 1 are clamped to 1 (epochs of a
// single instant — always safe, never fast). workers caps the goroutines
// running engines concurrently; values below 1 or above len(engines) are
// clamped. The group starts in adaptive mode (see SetAdaptive).
func NewShardGroup(engines []*Engine, lookahead Time, workers int) *ShardGroup {
	if lookahead < 1 {
		lookahead = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	return &ShardGroup{
		engines:   engines,
		lookahead: lookahead,
		workers:   workers,
		adaptive:  true,
		errs:      make([]error, len(engines)),
		nextAts:   make([]Time, len(engines)),
		ends:      make([]Time, len(engines)),
		live:      make([]int, 0, len(engines)),
	}
}

// Exchange carries the cross-shard traffic of a ShardGroup
// (netsim.ShardExchange is the production one). Sends made during a round
// are parked, stamped with arrival instants at least the group's lookahead
// after the send, until the next Flush.
type Exchange interface {
	// Flush moves every parked send into its receiving engine. It runs
	// single-threaded with every engine parked between rounds, and drains
	// completely: Pending reads false afterwards until the next send.
	Flush()
	// Pending reports whether any send is parked. It is called from the
	// goroutine of the one shard running in a solo round.
	Pending() bool
}

// SetExchange installs the group's cross-shard exchange. It must be set
// before Run when any two shards are connected; nil means the shards are
// independent.
func (g *ShardGroup) SetExchange(x Exchange) { g.exchange = x }

// SetAdaptive toggles adaptive mode (the default). When off, the group
// reverts to the classic fixed-width protocol: every round dispatches every
// shard to T+lookahead-1 where T is the earliest pending instant. The fixed
// path exists as the differential reference for the adaptive one — both
// must produce byte-identical simulations — and as the baseline for
// barrier-round counts.
func (g *ShardGroup) SetAdaptive(on bool) { g.adaptive = on }

// Stats returns the synchronization counters accumulated so far.
func (g *ShardGroup) Stats() ShardStats { return g.stats }

// Engines returns the group's engines in shard order.
func (g *ShardGroup) Engines() []*Engine { return g.engines }

// Lookahead returns the minimum cross-shard latency the group assumes.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Now returns the least-advanced shard clock (the group's committed time).
func (g *ShardGroup) Now() Time {
	if len(g.engines) == 0 {
		return 0
	}
	now := g.engines[0].Now()
	for _, e := range g.engines[1:] {
		if t := e.Now(); t < now {
			now = t
		}
	}
	return now
}

// addClamp returns t + d saturated at MaxTime (d must be non-negative).
func addClamp(t, d Time) Time {
	if s := t + d; s >= t {
		return s
	}
	return MaxTime
}

// Run processes events on every shard until all queues drain or every clock
// would pass the horizon, exactly like Engine.Run but across the group.
// Events scheduled exactly at the horizon still fire. The first non-nil
// engine error (in shard order, among the shards dispatched in the round
// where it occurred) is returned; the remaining shards of that round still
// finish, so the group is never left mid-barrier, and a later Run resumes
// cleanly.
func (g *ShardGroup) Run(until Time) error {
	if len(g.engines) == 0 {
		return nil
	}
	if len(g.engines) == 1 {
		// Single shard: plain serial execution. The exchange still flushes
		// so a degenerate one-shard partition with registered ports behaves.
		if g.exchange != nil {
			g.exchange.Flush()
		}
		return g.engines[0].Run(until)
	}

	// Clear stale results from a previous Run: with elision a shard may not
	// be dispatched for many rounds, and its old error must not resurface.
	for i := range g.errs {
		g.errs[i] = nil
	}
	if g.workers > 1 {
		b := newEpochBarrier(g.workers - 1)
		g.br = b
		for h := 0; h < b.helpers; h++ {
			go g.helperLoop(b)
		}
		defer func() {
			b.shutdown()
			g.br = nil
		}()
	}

	for {
		if g.exchange != nil {
			g.exchange.Flush()
		}
		t1, t2, i1 := g.scanNext()
		if i1 < 0 || t1 > until {
			break
		}
		if g.adaptive {
			g.adaptiveRound(until, t1, t2, i1)
		} else {
			g.fixedRound(until, t1)
		}
		for _, i := range g.live {
			if err := g.errs[i]; err != nil {
				return err
			}
		}
	}

	// Horizon reached (or queues drained): advance every clock to the
	// horizon so Now() reflects progress, mirroring Engine.Run.
	if until != MaxTime {
		for _, e := range g.engines {
			if e.Now() < until {
				if err := e.Run(until); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RunAll processes events until every shard's queue drains.
func (g *ShardGroup) RunAll() error { return g.Run(MaxTime) }

// scanNext fills nextAts with each shard's earliest pending instant
// (MaxTime when its queue is empty) and returns the two earliest instants
// and the index of the earliest shard (-1 when every queue is empty).
func (g *ShardGroup) scanNext() (t1, t2 Time, i1 int) {
	t1, t2, i1 = MaxTime, MaxTime, -1
	for i, e := range g.engines {
		at, ok := e.NextAt()
		if !ok {
			at = MaxTime
		}
		g.nextAts[i] = at
		if at < t1 {
			t2 = t1
			t1, i1 = at, i
		} else if at < t2 {
			t2 = at
		}
	}
	if t1 == MaxTime {
		i1 = -1
	}
	return t1, t2, i1
}

// fixedRound is the classic protocol: every shard runs [_, T+lookahead-1].
func (g *ShardGroup) fixedRound(until, t1 Time) {
	end := addClamp(t1, g.lookahead-1)
	if end > until {
		end = until
	}
	g.live = g.live[:0]
	for i := range g.engines {
		g.live = append(g.live, i)
		g.ends[i] = end
	}
	g.stats.Rounds++
	g.stats.BarrierRounds++
	g.stats.Dispatches += uint64(len(g.live))
	g.dispatch()
}

// adaptiveRound computes per-shard horizons from the two earliest pending
// instants t1 (on shard i1) and t2, and dispatches only the shards with
// work inside them.
//
// Soundness. Let L be the lookahead. A shard whose earliest pending event
// is at instant s cannot park a cross-shard send arriving before s+L. The
// earliest instant at which any shard other than i1 can act is
// min(t2, t1+L): either its own earliest event (≥ t2), or the earliest
// relay of something shard i1 sends (arriving ≥ t1+L). Therefore:
//
//   - every shard other than i1 may safely run through t1+L-1 (nothing can
//     reach it before t1+L, the leader's earliest possible send arrival);
//   - the leader i1 may run through min(t2, t1+L) + L - 1: nothing can
//     reach *it* before the earliest foreign action plus L. Note the relay
//     term: the leader's own send at t1 can bounce off another shard and
//     come back at t1+2L, which is why the horizon is not simply t2+L-1.
//
// A shard whose earliest event lies beyond its horizon would fire nothing;
// it is elided (its clock is advanced lazily by the final horizon loop or a
// later round). When only the leader is live the round runs inline with no
// barrier — and soloRun may widen the horizon further still.
func (g *ShardGroup) adaptiveRound(until, t1, t2 Time, i1 int) {
	endOther := addClamp(t1, g.lookahead-1)
	if endOther > until {
		endOther = until
	}
	g.live = g.live[:0]
	for i := range g.engines {
		if i == i1 || g.nextAts[i] <= endOther {
			g.live = append(g.live, i)
		}
	}
	g.stats.Rounds++
	g.stats.ElidedDispatches += uint64(len(g.engines) - len(g.live))
	if len(g.live) == 1 {
		g.stats.SoloRounds++
		g.stats.Dispatches++
		g.errs[i1] = g.soloRun(i1, until, t2)
		return
	}
	h := addClamp(t1, g.lookahead)
	if t2 < h {
		h = t2
	}
	endLeader := addClamp(h, g.lookahead-1)
	if endLeader > until {
		endLeader = until
	}
	for _, i := range g.live {
		g.ends[i] = endOther
	}
	g.ends[i1] = endLeader
	g.stats.BarrierRounds++
	g.stats.Dispatches += uint64(len(g.live))
	g.dispatch()
}

// soloRun advances the only live shard of a round, inline, with no barrier.
//
// With no exchange installed the shards are fully independent and the shard
// runs to the caller's horizon. Otherwise it starts from the optimistic
// bound t2+L-1 — no other shard can act before t2, and the flush that
// opened the round left nothing parked, so nothing can arrive here before
// t2+L — and tightens to now+2L-1 the moment the shard's first cross-shard
// send is parked: a send at instant s can be relayed back no earlier than
// s+2L. This is what collapses a long quiet stretch (events on one shard
// only, no traffic in flight) into a single round.
func (g *ShardGroup) soloRun(idx int, until, t2 Time) error {
	e := g.engines[idx]
	if g.exchange == nil {
		return e.Run(until)
	}
	target := addClamp(t2, g.lookahead-1)
	if target > until {
		target = until
	}
	watching := true
	// Mirror Engine.Run exactly, plus the per-event Pending probe while
	// watching (one atomic load; dropped after the first hit).
	for {
		if e.stopped {
			e.stopped = false
			return ErrStopped
		}
		at, ok := e.NextAt()
		if !ok {
			break
		}
		if at > target {
			e.now = target
			return nil
		}
		e.Step()
		if watching && g.exchange.Pending() {
			watching = false
			if t := addClamp(addClamp(e.now, g.lookahead), g.lookahead-1); t < target {
				target = t
			}
		}
	}
	if target != MaxTime && e.now < target {
		e.now = target
	}
	return nil
}

// dispatch runs every live shard to its horizon: inline when the group has
// a single worker, otherwise through the persistent barrier. Which worker
// runs which shard is arbitrary and immaterial — shards are isolated for
// the duration of the round.
func (g *ShardGroup) dispatch() {
	b := g.br
	if b == nil {
		for _, i := range g.live {
			g.errs[i] = g.engines[i].Run(g.ends[i])
		}
		return
	}
	b.arrived.Store(0)
	b.next.Store(0)
	b.publish()
	g.runShare(b)
	// Wait for every helper to check in. Helpers beyond the live-shard
	// count arrive immediately; the spin keeps the common fast round free
	// of futex round-trips, the Gosched keeps a single-P schedule live.
	for spin := 0; b.arrived.Load() != int64(b.helpers); spin++ {
		if spin > coordSpins {
			runtime.Gosched()
		}
	}
}

// runShare claims shards off the round's live list until none remain.
func (g *ShardGroup) runShare(b *epochBarrier) {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(g.live) {
			return
		}
		s := g.live[i]
		g.errs[s] = g.engines[s].Run(g.ends[s])
	}
}

// helperLoop is the body of a persistent worker goroutine: wait for a round
// to be published, claim shards, check in, repeat. Helpers hold a reference
// to their own barrier, so stragglers from a finished Run can never observe
// a newer Run's rounds.
func (g *ShardGroup) helperLoop(b *epochBarrier) {
	last := uint64(0)
	for {
		last = b.await(last)
		if b.quit.Load() {
			return
		}
		g.runShare(b)
		b.arrived.Add(1)
	}
}

// Spin budgets for the barrier. Helpers spin hot briefly (a round is often
// published back-to-back with the previous one), yield for a while so a
// box with fewer cores than workers still makes progress, then park on the
// condition variable. The coordinator never parks — it yields.
const (
	hotSpins   = 64
	yieldSpins = 2048
	coordSpins = 64
)

// epochBarrier synchronizes the persistent helper goroutines of one Run
// call with the coordinator. round is a monotonic generation counter — the
// overflow-free form of a sense-reversing barrier's sense bit: a helper's
// "sense" is the last round value it processed, and a mismatch means a new
// round (or shutdown) was published. Publication happens entirely through
// atomics on the fast path; the mutex/cond pair exists only so a helper
// that has spun too long can park without missed-wakeup races (publish
// bumps the counter under the lock, await re-checks it under the lock
// before sleeping).
type epochBarrier struct {
	round   atomic.Uint64
	next    atomic.Int64 // work index into the round's live list
	arrived atomic.Int64 // helpers done with the current round
	quit    atomic.Bool  // set before the final publish
	helpers int

	mu   sync.Mutex
	cond *sync.Cond
}

func newEpochBarrier(helpers int) *epochBarrier {
	b := &epochBarrier{helpers: helpers}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish makes the next round (or shutdown) visible to helpers. The
// counter bump is under the lock purely to pair with await's parked
// re-check; spinning helpers see the new value without touching the lock.
func (b *epochBarrier) publish() {
	b.mu.Lock()
	b.round.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// await blocks until the round counter moves past last and returns the new
// value. Fast path: spin, then yield; slow path: park on the cond.
func (b *epochBarrier) await(last uint64) uint64 {
	for spin := 0; spin < yieldSpins; spin++ {
		if r := b.round.Load(); r != last {
			return r
		}
		if spin >= hotSpins {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for {
		if r := b.round.Load(); r != last {
			b.mu.Unlock()
			return r
		}
		b.cond.Wait()
	}
}

// shutdown releases the helpers. It must only be called between rounds
// (every helper checked in), which Run's structure guarantees.
func (b *epochBarrier) shutdown() {
	b.quit.Store(true)
	b.publish()
}
