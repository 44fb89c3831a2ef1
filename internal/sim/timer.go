package sim

// Timer is a restartable one-shot timer bound to an Engine. Protocol state
// machines use it for retransmission and lifetime timeouts.
//
// A Timer is not safe for concurrent use; like everything in the simulator
// it runs on the single event-loop goroutine.
type Timer struct {
	engine  *Engine
	lane    Lane
	fn      Handler
	fire    Handler // pre-bound expiry handler, allocated once in NewTimer
	ref     EventRef
	armed   bool
	expires Time
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(engine *Engine, fn Handler) *Timer { return NewTimerIn(engine, Lane{}, fn) }

// NewTimerIn returns an unarmed timer whose expiries are declared to lane:
// the lane of the timer's class when the class re-arms with one fixed
// delay (Engine.SharedLane).
func NewTimerIn(engine *Engine, lane Lane, fn Handler) *Timer {
	if engine == nil {
		panic("sim: NewTimer with nil engine")
	}
	if fn == nil {
		panic("sim: NewTimer with nil handler")
	}
	t := &Timer{engine: engine, lane: lane, fn: fn}
	t.fire = func() {
		t.armed = false
		t.fn()
	}
	return t
}

// Armed reports whether the timer is currently scheduled.
func (t *Timer) Armed() bool { return t.armed }

// Expires returns the instant the timer will fire; only meaningful while
// Armed.
func (t *Timer) Expires() Time { return t.expires }

// Reset (re)arms the timer to fire after delay, cancelling any pending
// expiry.
func (t *Timer) Reset(delay Time) { t.ResetIn(t.lane, delay) }

// ResetIn is Reset with this expiry declared to lane l instead of the
// timer's own: for a timer whose delay depends on how it is armed.
func (t *Timer) ResetIn(l Lane, delay Time) {
	t.Stop()
	t.armed = true
	t.expires = t.engine.Now() + delay
	t.ref = t.engine.ScheduleIn(l, delay, t.fire)
}

// ResetAt (re)arms the timer to fire at an absolute instant.
func (t *Timer) ResetAt(at Time) {
	now := t.engine.Now()
	if at < now {
		at = now
	}
	t.Reset(at - now)
}

// Stop cancels a pending expiry. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	if !t.armed {
		return
	}
	t.engine.Cancel(t.ref)
	t.armed = false
}

// tickerPeriod keys the lane shared by every ticker of one period.
type tickerPeriod Time

// Ticker invokes fn at a fixed period until stopped. Every re-arm is one
// period after a firing, so the tickers of one period share a lane; the
// first tick, one phase out, is not declared.
type Ticker struct {
	timer  *Timer
	period Time
	fn     Handler
}

// NewTicker starts a ticker whose first tick fires after one period.
func NewTicker(engine *Engine, period Time, fn Handler) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	return NewTickerAt(engine, period, period, fn)
}

// NewTickerAt starts a ticker whose first tick fires after the given phase
// offset; subsequent ticks follow every period.
func NewTickerAt(engine *Engine, phase, period Time, fn Handler) *Ticker {
	if period <= 0 {
		panic("sim: NewTickerAt with non-positive period")
	}
	tk := &Ticker{period: period, fn: fn}
	tk.timer = NewTimer(engine, tk.tick)
	tk.timer.Reset(phase)
	tk.timer.lane = engine.SharedLane(tickerPeriod(period))
	return tk
}

func (tk *Ticker) tick() {
	tk.timer.Reset(tk.period)
	tk.fn()
}

// Stop halts the ticker.
func (tk *Ticker) Stop() { tk.timer.Stop() }
