package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestInternNodeIdempotentAndRoundTrip(t *testing.T) {
	a := InternNode("par")
	if b := InternNode("par"); b != a {
		t.Fatalf("interning not idempotent: %v %v", a, b)
	}
	if a == 0 {
		t.Fatal("real name interned as the sentinel 0")
	}
	if a.String() != "par" {
		t.Fatalf("round trip = %q", a.String())
	}
	if InternNode("") != 0 {
		t.Fatal("empty name must intern to 0")
	}
	if NodeID(0).String() != "" {
		t.Fatal("NodeID 0 must render empty")
	}
	if other := InternNode("par-other"); other == a {
		t.Fatal("distinct names collided")
	}
}

func TestNodeNamePrefersExplicitNode(t *testing.T) {
	id := InternNode("nar")
	ev := Event{Node: "override", NodeID: id}
	if ev.NodeName() != "override" {
		t.Fatalf("NodeName = %q", ev.NodeName())
	}
	ev.Node = ""
	if ev.NodeName() != "nar" {
		t.Fatalf("NodeName = %q", ev.NodeName())
	}
}

// TestDetailTextMatchesEagerFormatting is the golden check: every typed
// event code must render byte-identically to the fmt.Sprintf strings the
// scenario hooks used to build eagerly.
func TestDetailTextMatchesEagerFormatting(t *testing.T) {
	site := stats.SiteNARBuffer
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Code: CodeSendsControl, Arg0: int64(fho.KindHI)},
			"sends " + fho.KindHI.String(),
		},
		{
			Event{Code: CodeDropPacket, Arg0: 7,
				Arg1: PackPacket(inet.ProtoUDP, inet.ClassHighPriority, site)},
			fmt.Sprintf("%s flow=%d class=%s (%s)", inet.ProtoUDP, 7, inet.ClassHighPriority, site),
		},
		{
			Event{Code: CodeDeliverPacket, Arg0: 12,
				Arg1: PackPacket(inet.ProtoTCP, inet.ClassBestEffort, 0)},
			fmt.Sprintf("%s flow=%d class=%s", inet.ProtoTCP, 12, inet.ClassBestEffort),
		},
		{Event{Code: CodeBlackoutBegins}, "L2 blackout begins"},
		{Event{Code: CodeAttachedNewAP}, "attached to the new access point"},
		{
			Event{Code: CodeHandoffDone, Arg0: PackHandoff(true, false, true, false)},
			"complete (anticipated=true link-layer=false nar=true par=false)",
		},
		{
			Event{Code: CodeHandoffDone, Arg0: PackHandoff(false, true, false, true)},
			"complete (anticipated=false link-layer=true nar=false par=true)",
		},
		{Event{Detail: "hand-written"}, "hand-written"},
		{Event{}, ""},
	}
	for i, tt := range cases {
		if got := tt.ev.DetailText(); got != tt.want {
			t.Errorf("case %d: DetailText = %q, want %q", i, got, tt.want)
		}
	}
}

func TestDetailPreemptsCode(t *testing.T) {
	// A non-empty Detail wins over the typed payload — the escape hatch
	// must never be reinterpreted.
	ev := Event{Code: CodeBlackoutBegins, Detail: "custom"}
	if ev.DetailText() != "custom" {
		t.Fatalf("DetailText = %q", ev.DetailText())
	}
}

func TestPackPacketRoundTrip(t *testing.T) {
	site := stats.InternSite("round-trip-site")
	proto, class, gotSite := unpackPacket(PackPacket(inet.ProtoUDP, inet.ClassRealTime, site))
	if proto != inet.ProtoUDP || class != inet.ClassRealTime || gotSite != site {
		t.Fatalf("round trip = %v %v %v", proto, class, gotSite)
	}
}

// TestLogEmitTypedZeroAlloc pins the emit hot path: a typed event into a
// warmed log allocates nothing — the point of lazy formatting.
func TestLogEmitTypedZeroAlloc(t *testing.T) {
	l := NewLog(1 << 20)
	node := InternNode("mh0")
	at := sim.Time(0)
	emit := func() {
		at += sim.Millisecond
		l.Emit(Event{
			At: at, Kind: KindDeliver, NodeID: node,
			Code: CodeDeliverPacket, Arg0: 1,
			Arg1: PackPacket(inet.ProtoUDP, inet.ClassHighPriority, 0),
			Seq:  int64(at),
		})
	}
	for i := 0; i < 4096; i++ {
		emit()
	}
	// Keep append growth out of the measured window.
	for cap(l.events)-len(l.events) < 256 {
		emit()
	}
	if avg := testing.AllocsPerRun(100, emit); avg != 0 {
		t.Fatalf("typed Emit allocates %.2f times per event; want 0", avg)
	}
}

func TestNoteShortCircuitsWhenFull(t *testing.T) {
	l := NewLog(1)
	l.Note(0, "sim", "first %d", 1)
	// The log is now full and nobody subscribes: Note must count the event
	// as dropped without formatting it.
	if avg := testing.AllocsPerRun(100, func() {
		l.Note(sim.Second, "sim", "wasted %d %s", 42, "formatting")
	}); avg != 0 {
		t.Fatalf("full-log Note allocates %.2f times; want 0", avg)
	}
	if l.Dropped() != 101 {
		t.Fatalf("Dropped = %d, want 101", l.Dropped())
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestNoteStillReachesSubscribersWhenFull(t *testing.T) {
	l := NewLog(1)
	var seen []string
	l.Subscribe(func(ev Event) { seen = append(seen, ev.Detail) })
	l.Note(0, "sim", "one")
	l.Note(sim.Second, "sim", "two %d", 2) // beyond limit, still delivered live
	if len(seen) != 2 || seen[1] != "two 2" {
		t.Fatalf("subscriber saw %v", seen)
	}
	if l.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", l.Dropped())
	}
}

func TestEventsSkipsSortWhenEmittedInOrder(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 1000; i++ {
		l.Emit(Event{At: sim.Time(i), Kind: KindNote})
	}
	// In-order logs return a plain copy: one slice allocation, no sort.
	if avg := testing.AllocsPerRun(20, func() { _ = l.Events() }); avg > 1 {
		t.Fatalf("sorted-log Events allocates %.1f times per call; want 1", avg)
	}
}

func TestOutOfOrderEventsCachedAcrossCalls(t *testing.T) {
	l := NewLog(0)
	l.Emit(Event{At: 2 * sim.Second, Kind: KindNote, Detail: "b"})
	l.Emit(Event{At: sim.Second, Kind: KindNote, Detail: "a"})
	first := l.Events()
	if first[0].Detail != "a" || first[1].Detail != "b" {
		t.Fatalf("events not sorted: %+v", first)
	}
	// The sorted view is built once and reused: only the outgoing copy
	// allocates on repeat calls.
	if avg := testing.AllocsPerRun(20, func() { _ = l.Events() }); avg > 1 {
		t.Fatalf("unsorted-log Events allocates %.1f times per call after caching; want 1", avg)
	}
	// A new emit invalidates the cache and keeps ordering correct.
	l.Emit(Event{At: 1500 * sim.Millisecond, Kind: KindNote, Detail: "mid"})
	evs := l.Events()
	if evs[0].Detail != "a" || evs[1].Detail != "mid" || evs[2].Detail != "b" {
		t.Fatalf("cache not invalidated: %+v", evs)
	}
}

func TestFilterDoesNotMutateOrder(t *testing.T) {
	l := NewLog(0)
	l.Emit(Event{At: 3, Kind: KindDrop, Seq: 3})
	l.Emit(Event{At: 1, Kind: KindDrop, Seq: 1})
	l.Emit(Event{At: 2, Kind: KindControl})
	drops := l.Filter(KindDrop)
	if len(drops) != 2 || drops[0].Seq != 1 || drops[1].Seq != 3 {
		t.Fatalf("Filter = %+v", drops)
	}
	// Negative and huge kinds must not panic the bitmask.
	if got := l.Filter(Kind(-1), Kind(99)); len(got) != 0 {
		t.Fatalf("nonsense kinds matched %d events", len(got))
	}
}

func TestRenderTypedEvents(t *testing.T) {
	l := NewLog(0)
	node := InternNode("par")
	l.Emit(Event{At: sim.Second, Kind: KindControl, NodeID: node,
		Code: CodeSendsControl, Arg0: int64(fho.KindHI)})
	out := l.Render()
	if !strings.Contains(out, "par") || !strings.Contains(out, "sends "+fho.KindHI.String()) {
		t.Fatalf("Render = %q", out)
	}
}

// benchLogSize keeps the emit benchmarks cache-resident: the log's event
// slice is allocated once at benchLogSize and emptied in place before it
// fills, so the measured cost is the steady-state Emit, not slice growth
// or the collector. Both emit benchmarks share the structure, so the
// typed-vs-eager comparison stays apples to apples.
const benchLogSize = 16 * 1024

// newBenchLog returns a log whose event slice already holds benchLogSize.
func newBenchLog() *Log {
	l := NewLog(benchLogSize)
	l.events = make([]Event, 0, benchLogSize)
	return l
}

func BenchmarkLogEmitTyped(b *testing.B) {
	l := newBenchLog()
	node := InternNode("mh0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchLogSize == benchLogSize-1 {
			l.events = l.events[:0]
		}
		l.Emit(Event{
			At: sim.Time(i), Kind: KindDeliver, NodeID: node,
			Code: CodeDeliverPacket, Arg0: 1,
			Arg1: PackPacket(inet.ProtoUDP, inet.ClassHighPriority, 0),
			Seq:  int64(i),
		})
	}
}

func BenchmarkLogEmitEagerDetail(b *testing.B) {
	// The old cost: formatting the payload at emit time.
	l := newBenchLog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchLogSize == benchLogSize-1 {
			l.events = l.events[:0]
		}
		l.Emit(Event{
			At: sim.Time(i), Kind: KindDeliver, Node: "mh0",
			Detail: fmt.Sprintf("%s flow=%d class=%s", inet.ProtoUDP, 1, inet.ClassHighPriority),
			Seq:    int64(i),
		})
	}
}

func BenchmarkLogEventsSorted(b *testing.B) {
	l := NewLog(0)
	for i := 0; i < 1000; i++ {
		l.Emit(Event{At: sim.Time(i), Kind: KindNote})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Events()
	}
}
