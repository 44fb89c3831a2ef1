package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if got := e.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d, want 0", got)
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.Schedule(5*Millisecond, func() { fired = e.Now() })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired != 5*Millisecond {
		t.Fatalf("event fired at %v, want 5ms", fired)
	}
	if e.Now() != 5*Millisecond {
		t.Fatalf("Now() = %v after run, want 5ms", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*Second, func() { order = append(order, 3) })
	e.Schedule(1*Second, func() { order = append(order, 1) })
	e.Schedule(2*Second, func() { order = append(order, 2) })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFireFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { order = append(order, i) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: order = %v", order)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(Second, func() {
		e.Schedule(-5*Second, func() { at = e.Now() })
	})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if at != Second {
		t.Fatalf("clamped event fired at %v, want 1s", at)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(2*Second, func() {
		e.At(Second, func() { at = e.Now() })
	})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if at != 2*Second {
		t.Fatalf("past event fired at %v, want 2s", at)
	}
}

func TestRunHorizonLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10*Second, func() { fired = true })
	if err := e.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 5*Second {
		t.Fatalf("Now() = %v, want horizon 5s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// Continuing past the event fires it.
	if err := e.Run(20 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire on second run")
	}
}

// A horizon behind the clock must not rewind it: an event scheduled after
// such a Run may not fire before instants already processed.
func TestRunBehindClockKeepsClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.At(10, record)
	e.At(20, record)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %dns after Run(10), Run(5); want 10ns", int64(e.Now()))
	}
	e.At(7, record) // in the past: clamped to 10
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{10, 10, 20}; !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5*Second, func() { fired = true })
	if err := e.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.Schedule(Second, func() { fired = true })
	e.Cancel(ref)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", e.Pending())
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired || e.Processed() != 0 {
		t.Fatalf("cancelled event fired (fired=%t processed=%d)", fired, e.Processed())
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := NewEngine()
	ref := e.Schedule(Second, func() {})
	e.Cancel(ref)
	e.Cancel(ref) // must not panic or corrupt the heap
	other := false
	e.Schedule(2*Second, func() { other = true })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !other {
		t.Fatal("unrelated event lost after double cancel")
	}
}

func TestCancelAfterFireReportsFiredNotCancelled(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.Schedule(Second, func() { fired = true })
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	// A late Cancel is a no-op: it neither disturbs the live count nor
	// reaches the event that reuses the fired one's slot.
	next := false
	e.Schedule(Second, func() { next = true })
	e.Cancel(ref)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after a late Cancel, want 1", e.Pending())
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !next || e.Processed() != 2 {
		t.Fatalf("late Cancel reached the next event (fired=%t processed=%d)", next, e.Processed())
	}
}

func TestEventCancellingItselfStaysFired(t *testing.T) {
	e := NewEngine()
	later := false
	var ref EventRef
	ref = e.Schedule(Second, func() {
		// A handler cancelling its own (currently firing) event is a
		// no-op: the live count must not drop a second time.
		e.Schedule(Second, func() { later = true })
		e.Cancel(ref)
		if e.Pending() != 1 {
			t.Errorf("Pending = %d after self-cancel, want 1", e.Pending())
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !later || e.Processed() != 2 || e.Pending() != 0 {
		t.Fatalf("after self-cancel: later=%t processed=%d pending=%d, want true/2/0",
			later, e.Processed(), e.Pending())
	}
}

func TestStopInterruptsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*Second, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	err := e.RunAll()
	if err != ErrStopped {
		t.Fatalf("RunAll = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Fatalf("processed %d events before stop, want 2", count)
	}
	// Run again resumes.
	if err := e.RunAll(); err != nil {
		t.Fatalf("resume RunAll: %v", err)
	}
	if count != 5 {
		t.Fatalf("processed %d events total, want 5", count)
	}
}

func TestStepFiresOneEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(Second, func() { count++ })
	e.Schedule(2*Second, func() { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 {
		t.Fatalf("count = %d after one step, want 1", count)
	}
	if e.Step(); count != 2 {
		t.Fatalf("count = %d after two steps, want 2", count)
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestHandlerMayScheduleMore(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(Millisecond, recurse)
		}
	}
	e.Schedule(0, recurse)
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*Millisecond {
		t.Fatalf("Now() = %v, want 99ms", e.Now())
	}
}

func TestProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

func TestDurationConversion(t *testing.T) {
	if got := Duration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("Duration = %v, want 1.5s", got)
	}
}

func TestTimeFormatting(t *testing.T) {
	tests := []struct {
		give Time
		want string
	}{
		{0, "0.000000s"},
		{1500 * Millisecond, "1.500000s"},
		{Microsecond, "0.000001s"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.give), got, tt.want)
		}
	}
}

func TestTimeSecondsMilliseconds(t *testing.T) {
	tm := 2500 * Millisecond
	if got := tm.Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := tm.Milliseconds(); got != 2500 {
		t.Errorf("Milliseconds() = %v, want 2500", got)
	}
}

// Property: however events are scheduled, they fire in non-decreasing time
// order, and equal-time events fire in scheduling order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i := i
			at := Time(d) * Millisecond
			e.At(at, func() { fired = append(fired, firing{at: e.Now(), seq: i}) })
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset of events fires exactly the
// complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		if len(delays) > 100 {
			delays = delays[:100]
		}
		e := NewEngine()
		firedSet := make(map[int]bool)
		refs := make([]EventRef, len(delays))
		for i, d := range delays {
			i := i
			refs[i] = e.Schedule(Time(d)*Millisecond, func() { firedSet[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range delays {
			if i < len(mask) && mask[i] {
				e.Cancel(refs[i])
				cancelled[i] = true
			}
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		for i := range delays {
			if cancelled[i] == firedSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStopBeforeRunIsHonored(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(Second, func() { fired = true })
	e.Stop() // issued before Run: must not be silently lost
	if err := e.RunAll(); err != ErrStopped {
		t.Fatalf("RunAll after pre-Run Stop = %v, want ErrStopped", err)
	}
	if fired {
		t.Fatal("event fired despite a pending stop")
	}
	// The stop is consumed: the next Run proceeds normally.
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll after consumed stop: %v", err)
	}
	if !fired {
		t.Fatal("event lost after the stop was consumed")
	}
}

func TestStopBeforeRunEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.Stop()
	if err := e.RunAll(); err != ErrStopped {
		t.Fatalf("RunAll on empty stopped engine = %v, want ErrStopped", err)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("second RunAll = %v, want nil", err)
	}
}
