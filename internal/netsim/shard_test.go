package netsim

import (
	"fmt"
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// crossPair wires a -- b over one link, either on a single engine (plain
// Connect) or split across two engines joined by a ShardExchange, and
// returns a runner plus the recorded arrival log at b.
func crossPair(sharded bool, cfg LinkConfig, sends []sim.Time) (run func() error, log *[]string) {
	var ea, eb *sim.Engine
	x := NewShardExchange()
	ea = sim.NewEngine()
	if sharded {
		eb = sim.NewEngine()
	} else {
		eb = ea
	}
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	x.Connect(ea, eb, a, b, cfg)

	arrivals := &[]string{}
	b.Receive = func(pkt *inet.Packet) {
		*arrivals = append(*arrivals, fmt.Sprintf("%v seq=%d", eb.Now(), pkt.Seq))
	}
	for i, at := range sends {
		seq := uint32(i)
		ea.At(at, func() {
			a.Send(&inet.Packet{Src: a.Addr(), Dst: b.Addr(), Proto: inet.ProtoUDP, Size: 125, Seq: seq})
		})
	}
	if !sharded {
		return func() error { return ea.RunAll() }, arrivals
	}
	g := sim.NewShardGroup([]*sim.Engine{ea, eb}, x.Lookahead(), 2)
	g.SetExchange(x)
	return g.RunAll, arrivals
}

func TestCrossShardLinkMatchesPlainLink(t *testing.T) {
	// Same wire parameters, same send schedule: the sharded link must
	// deliver every packet at exactly the instants the serial link does,
	// including packets that queue behind a busy transmitter.
	cfg := LinkConfig{BandwidthBPS: 1_000_000, Delay: 3 * sim.Millisecond}
	sends := []sim.Time{
		0,
		100 * sim.Microsecond, // lands while packet 0 still serializes (1 ms tx time)
		200 * sim.Microsecond,
		10 * sim.Millisecond,
		10 * sim.Millisecond, // same-instant pair
	}
	runSerial, serialLog := crossPair(false, cfg, sends)
	if err := runSerial(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	runSharded, shardedLog := crossPair(true, cfg, sends)
	if err := runSharded(); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if len(*serialLog) != len(sends) {
		t.Fatalf("serial delivered %d of %d", len(*serialLog), len(sends))
	}
	if fmt.Sprint(*serialLog) != fmt.Sprint(*shardedLog) {
		t.Fatalf("cross-shard deliveries diverged:\nserial  %v\nsharded %v", *serialLog, *shardedLog)
	}
}

func TestCrossShardDuplexAndCounters(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	x := NewShardExchange()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := x.Connect(ea, eb, a, b, LinkConfig{Delay: 2 * sim.Millisecond})

	gotA, gotB := 0, 0
	a.Receive = func(*inet.Packet) { gotA++ }
	b.Receive = func(*inet.Packet) { gotB++ }
	ea.At(0, func() {
		a.Send(&inet.Packet{Src: a.Addr(), Dst: b.Addr(), Proto: inet.ProtoUDP, Size: 100})
	})
	eb.At(sim.Millisecond, func() {
		b.Send(&inet.Packet{Src: b.Addr(), Dst: a.Addr(), Proto: inet.ProtoUDP, Size: 100})
	})
	g := sim.NewShardGroup([]*sim.Engine{ea, eb}, x.Lookahead(), 2)
	g.SetExchange(x)
	if err := g.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if gotA != 1 || gotB != 1 {
		t.Fatalf("deliveries a=%d b=%d, want 1/1", gotA, gotB)
	}
	if l.A().Sent() != 1 || l.B().Sent() != 1 {
		t.Fatalf("sent a=%d b=%d, want 1/1", l.A().Sent(), l.B().Sent())
	}
	if l.A().delivers != 1 || l.B().delivers != 1 {
		t.Fatalf("delivers a=%d b=%d, want 1/1", l.A().delivers, l.B().delivers)
	}
}

func TestShardExchangeSameEngineFallsBack(t *testing.T) {
	e := sim.NewEngine()
	x := NewShardExchange()
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	l := x.Connect(e, e, a, b, LinkConfig{Delay: sim.Millisecond})
	if x.Ports() != 0 {
		t.Fatalf("same-engine connect registered %d ports, want 0", x.Ports())
	}
	if x.Lookahead() != 0 {
		t.Fatalf("lookahead = %v, want 0 with no cross links", x.Lookahead())
	}
	got := 0
	b.Receive = func(*inet.Packet) { got++ }
	a.Send(&inet.Packet{Src: a.Addr(), Dst: b.Addr(), Proto: inet.ProtoUDP, Size: 64})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got != 1 || l.A().xport != nil {
		t.Fatalf("fallback link misbehaved: got=%d xport=%v", got, l.A().xport)
	}
}

func TestShardExchangeLookaheadIsMinCrossDelay(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	x := NewShardExchange()
	mk := func(i int) (*Host, *Host) {
		return NewHost(fmt.Sprintf("a%d", i), inet.Addr{Net: inet.NetID(10 + i), Host: 1}),
			NewHost(fmt.Sprintf("b%d", i), inet.Addr{Net: inet.NetID(20 + i), Host: 1})
	}
	a0, b0 := mk(0)
	a1, b1 := mk(1)
	x.Connect(ea, eb, a0, b0, LinkConfig{Delay: 5 * sim.Millisecond})
	x.Connect(ea, eb, a1, b1, LinkConfig{Delay: 2 * sim.Millisecond})
	if x.Lookahead() != 2*sim.Millisecond {
		t.Fatalf("lookahead = %v, want 2ms", x.Lookahead())
	}
	if x.Ports() != 4 {
		t.Fatalf("ports = %d, want 4", x.Ports())
	}
}

func TestCrossShardZeroDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-delay cross-shard link did not panic")
		}
	}()
	x := NewShardExchange()
	x.Connect(sim.NewEngine(), sim.NewEngine(),
		NewHost("a", inet.Addr{Net: 1, Host: 1}), NewHost("b", inet.Addr{Net: 2, Host: 1}),
		LinkConfig{})
}

// BenchmarkShardMailbox pins the steady-state cost of the cross-shard path:
// once outboxes, pending FIFOs, and engine free lists are warm, pushing a
// packet through a barrier must not allocate.
func BenchmarkShardMailbox(b *testing.B) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	x := NewShardExchange()
	src := NewHost("src", inet.Addr{Net: 1, Host: 1})
	dst := NewHost("dst", inet.Addr{Net: 2, Host: 1})
	x.Connect(ea, eb, src, dst, LinkConfig{Delay: sim.Millisecond})
	g := sim.NewShardGroup([]*sim.Engine{ea, eb}, x.Lookahead(), 1)
	g.SetExchange(x)

	pkt := &inet.Packet{Src: src.Addr(), Dst: dst.Addr(), Proto: inet.ProtoUDP, Size: 160}
	delivered := 0
	dst.Receive = func(*inet.Packet) { delivered++ }
	send := func() { src.Send(pkt) }

	// Warm every free list with one full cycle before measuring.
	ea.At(ea.Now(), send)
	if err := g.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ea.At(ea.Now(), send)
		if err := g.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	if delivered != b.N+1 {
		b.Fatalf("delivered %d, want %d", delivered, b.N+1)
	}
}

// TestShardExchangeRebalancesPools sends a stream of pooled packets across
// a cross-shard link. They are born in the sender's shard pool and die in
// the receiver's; without the barrier's rebalance the sender would
// allocate every packet fresh while the receiver's free list grew.
func TestShardExchangeRebalancesPools(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	x := NewShardExchange(ea, eb)
	ta := NewTopologyWithPool(ea, x.Pool(ea))
	tb := NewTopologyWithPool(eb, x.Pool(eb))
	a := NewHost("a", inet.Addr{Net: 1, Host: 1})
	b := NewHost("b", inet.Addr{Net: 2, Host: 1})
	x.Connect(ea, eb, a, b, LinkConfig{Delay: sim.Millisecond})
	b.Receive = tb.ReleasePacket

	const sends = 1000
	for i := 0; i < sends; i++ {
		ea.At(sim.Time(i)*100*sim.Microsecond, func() {
			pkt := ta.AllocPacket()
			*pkt = inet.Packet{Src: a.Addr(), Dst: b.Addr(), Proto: inet.ProtoUDP, Size: 100}
			a.Send(pkt)
		})
	}
	g := sim.NewShardGroup([]*sim.Engine{ea, eb}, x.Lookahead(), 2)
	g.SetExchange(x)
	if err := g.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	st := x.PoolStats()
	if len(st) != 2 || st[0] != ta.PoolStats() || st[1] != tb.PoolStats() {
		t.Fatalf("PoolStats %v does not match the topologies' %v/%v", st, ta.PoolStats(), tb.PoolStats())
	}
	if st[0].Gets != sends || st[1].Puts != sends || st[0].Puts != 0 || st[1].Gets != 0 {
		t.Fatalf("pool traffic %v, want %d Gets on the sender and %d Puts on the receiver", st, sends, sends)
	}
	// About 1 ms of packets is in flight at a barrier; allow a few epochs.
	if st[0].Fresh > sends/10 {
		t.Fatalf("sender allocated %d of %d packets fresh", st[0].Fresh, sends)
	}
	if free := st[0].Len + st[1].Len; uint64(free) != st[0].Fresh {
		t.Fatalf("%d packets free after the drain, want all %d allocated", free, st[0].Fresh)
	}
}

func TestShardExchangePoolOutsidePartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pool for a foreign engine did not panic")
		}
	}()
	NewShardExchange(sim.NewEngine()).Pool(sim.NewEngine())
}
