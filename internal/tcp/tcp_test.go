package tcp

import (
	"testing"
	"testing/quick"

	"repro/internal/inet"
	"repro/internal/sim"
)

// pipe is a lossy, delayed wire between a sender and receiver.
type pipe struct {
	engine *sim.Engine
	delay  sim.Time
	// dropData decides whether a data segment is lost (by segment index).
	dropData func(n int) bool
	// blackout drops everything (both directions) inside [from, to).
	from, to sim.Time

	sender   *Sender
	receiver *Receiver
	dataSent int
	// lostEnd is the end of the furthest data segment dropData took.
	lostEnd uint64
}

func (p *pipe) inBlackout() bool {
	now := p.engine.Now()
	return p.to > p.from && now >= p.from && now < p.to
}

func (p *pipe) toReceiver(pkt *inet.Packet) {
	n := p.dataSent
	p.dataSent++
	seg := pkt.Payload.(*Segment)
	if p.inBlackout() {
		return
	}
	if p.dropData != nil && p.dropData(n) {
		p.lostEnd = max(p.lostEnd, seg.Seq+uint64(seg.Len))
		return
	}
	p.engine.Schedule(p.delay, func() { p.receiver.Handle(seg) })
}

func (p *pipe) toSender(pkt *inet.Packet) {
	if p.inBlackout() {
		return
	}
	seg := pkt.Payload.(*Segment)
	p.engine.Schedule(p.delay, func() { p.sender.HandleAck(seg) })
}

func newPipe(t *testing.T, cfg SenderConfig, delay sim.Time) *pipe {
	t.Helper()
	engine := sim.NewEngine()
	p := &pipe{engine: engine, delay: delay}
	cfg.Src = inet.Addr{Net: 1, Host: 1}
	cfg.Dst = inet.Addr{Net: 2, Host: 1}
	cfg.Flow = 1
	p.sender = NewSender(engine, cfg, p.toReceiver, nil)
	p.receiver = NewReceiver(engine, cfg.Dst, cfg.Src, cfg.Flow, p.toSender, 100*sim.Millisecond)
	return p
}

func TestBulkTransferDeliversInOrder(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000}, 5*sim.Millisecond)
	p.sender.Start()
	if err := p.engine.Run(2 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.sender.Stop()
	if p.receiver.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if p.receiver.RcvNxt() != p.receiver.Delivered() {
		t.Fatalf("rcvNxt %d != delivered %d", p.receiver.RcvNxt(), p.receiver.Delivered())
	}
	if p.sender.Timeouts() != 0 {
		t.Fatalf("lossless transfer suffered %d timeouts", p.sender.Timeouts())
	}
	// With a 10 ms RTT and growing window, two seconds move many windows.
	if p.receiver.Delivered() < 100_000 {
		t.Fatalf("delivered only %d bytes", p.receiver.Delivered())
	}
}

func TestSlowStartDoublesWindow(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000, InitialSSThresh: 1000}, 50*sim.Millisecond)
	p.sender.Start()
	// After one RTT: cwnd 2; two RTTs: 4; three: 8 (pure slow start).
	if err := p.engine.Run(320 * sim.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.sender.Stop()
	if got := p.sender.Cwnd(); got < 7 || got > 17 {
		t.Fatalf("cwnd after ~3 RTTs = %v, want exponential growth (7..17)", got)
	}
}

func TestSingleLossRecoversByFastRetransmit(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000}, 5*sim.Millisecond)
	p.dropData = func(n int) bool { return n == 30 }
	p.sender.Start()
	if err := p.engine.Run(3 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.sender.Stop()
	if p.sender.FastRetransmits() == 0 {
		t.Fatal("no fast retransmit for an isolated loss")
	}
	if p.sender.Timeouts() != 0 {
		t.Fatalf("isolated loss caused %d timeouts; dup-ACK recovery broken", p.sender.Timeouts())
	}
	// The hole must be filled: everything contiguous.
	if p.receiver.RcvNxt() < 100_000 {
		t.Fatalf("transfer stalled at %d", p.receiver.RcvNxt())
	}
}

func TestBlackoutCausesCoarseTimeout(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000}, 5*sim.Millisecond)
	p.from, p.to = 2*sim.Second, 2200*sim.Millisecond // 200 ms blackout
	p.sender.Start()
	if err := p.engine.Run(6 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.sender.Stop()
	if p.sender.Timeouts() == 0 {
		t.Fatal("a whole-window blackout did not time out")
	}
	// The stall is governed by the 1 s minimum RTO plus tick rounding:
	// progress resumes between 1 and ~1.5 s after the blackout start.
	var resumeAt sim.Time
	for _, s := range p.receiver.RecvTrace.Samples() {
		if s.At >= p.from {
			resumeAt = s.At
			break
		}
	}
	stall := resumeAt - p.from
	if stall < sim.Second || stall > 1700*sim.Millisecond {
		t.Fatalf("stall = %v, want the thesis' 1–1.5 s window", stall)
	}
	// And the transfer recovers fully afterwards.
	if p.receiver.RcvNxt() < 1_000_000 {
		t.Fatalf("transfer did not recover: rcvNxt = %d", p.receiver.RcvNxt())
	}
}

func TestTimeoutCollapsesWindowAndBacksOff(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000}, 5*sim.Millisecond)
	p.from, p.to = sim.Second, 5*sim.Second // long outage: repeated RTOs
	p.sender.Start()
	if err := p.engine.Run(4 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.sender.Timeouts() < 2 {
		t.Fatalf("timeouts = %d, want repeated backoff", p.sender.Timeouts())
	}
	if p.sender.Cwnd() != 1 {
		t.Fatalf("cwnd = %v during outage, want 1", p.sender.Cwnd())
	}
	if p.sender.RTO() < 2*sim.Second {
		t.Fatalf("RTO = %v, want exponential backoff beyond 2 s", p.sender.RTO())
	}
	// End the run cleanly.
	p.sender.Stop()
	if err := p.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func TestReceiverBuffersOutOfOrder(t *testing.T) {
	engine := sim.NewEngine()
	var acks []uint64
	r := NewReceiver(engine, inet.Addr{Net: 2, Host: 1}, inet.Addr{Net: 1, Host: 1}, 1,
		func(pkt *inet.Packet) { acks = append(acks, pkt.Payload.(*Segment).AckNo) }, 0)

	r.Handle(&Segment{Seq: 0, Len: 100})
	r.Handle(&Segment{Seq: 200, Len: 100}) // hole at 100
	r.Handle(&Segment{Seq: 300, Len: 100})
	r.Handle(&Segment{Seq: 100, Len: 100}) // fills the hole

	want := []uint64{100, 100, 100, 400}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if r.Delivered() != 400 {
		t.Fatalf("Delivered = %d, want 400", r.Delivered())
	}
}

func TestReceiverIgnoresSpuriousRetransmission(t *testing.T) {
	engine := sim.NewEngine()
	ackCount := 0
	r := NewReceiver(engine, inet.Addr{Net: 2, Host: 1}, inet.Addr{Net: 1, Host: 1}, 1,
		func(pkt *inet.Packet) { ackCount++ }, 0)
	r.Handle(&Segment{Seq: 0, Len: 100})
	r.Handle(&Segment{Seq: 0, Len: 100}) // duplicate
	if r.Delivered() != 100 {
		t.Fatalf("Delivered = %d, want 100 (no double count)", r.Delivered())
	}
	if ackCount != 2 {
		t.Fatalf("acks = %d, want 2 (duplicate still re-ACKed)", ackCount)
	}
}

func TestReceiverGoodputSeries(t *testing.T) {
	engine := sim.NewEngine()
	r := NewReceiver(engine, inet.Addr{Net: 2, Host: 1}, inet.Addr{Net: 1, Host: 1}, 1,
		func(pkt *inet.Packet) {}, 100*sim.Millisecond)
	engine.Schedule(50*sim.Millisecond, func() { r.Handle(&Segment{Seq: 0, Len: 1000}) })
	engine.Schedule(150*sim.Millisecond, func() { r.Handle(&Segment{Seq: 1000, Len: 1000}) })
	if err := engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	rate := r.Goodput.Rate()
	if len(rate) != 2 || rate[0].Value != 80_000 || rate[1].Value != 80_000 {
		t.Fatalf("rate = %+v, want two 80 kb/s buckets", rate)
	}
}

func TestRTTEstimatorQuantizesToTicks(t *testing.T) {
	engine := sim.NewEngine()
	s := NewSender(engine, SenderConfig{
		Src: inet.Addr{Net: 1, Host: 1}, Dst: inet.Addr{Net: 2, Host: 1},
	}, func(*inet.Packet) {}, nil)
	s.sampleRTT(20 * sim.Millisecond)
	if s.RTO() != s.cfg.MinRTO {
		t.Fatalf("RTO = %v for a 20 ms RTT, want the 1 s floor", s.RTO())
	}
	s.sampleRTT(800 * sim.Millisecond)
	if s.RTO()%s.cfg.Tick != 0 {
		t.Fatalf("RTO = %v not a multiple of the 500 ms tick", s.RTO())
	}
}

// Property: whatever single-loss pattern is applied, the byte stream the
// receiver accepts is exactly contiguous (no gaps, no duplicates counted).
func TestPropertyLossyTransferIntegrity(t *testing.T) {
	f := func(dropSet []uint8) bool {
		// Bound the adversary: at most 8 distinct losses among the first
		// 50 transmissions. (Unbounded per-transmission loss at minimum
		// windows degenerates into arbitrarily long exponential backoff —
		// correct TCP, but unbounded test time.)
		drops := make(map[int]bool, 8)
		for _, d := range dropSet {
			if len(drops) == 8 {
				break
			}
			drops[int(d)%50] = true
		}
		p := newPipe(t, SenderConfig{MSS: 1000}, 5*sim.Millisecond)
		p.dropData = func(n int) bool { return drops[n] }
		// Contiguity: delivered == rcvNxt, and the sender never believes
		// more was acked than the receiver accepted.
		contiguous := func() bool {
			return p.receiver.Delivered() == p.receiver.RcvNxt() &&
				p.sender.SndUna() <= p.receiver.RcvNxt()
		}
		p.sender.Start()
		// Up to 90 s in 100 ms steps, checking contiguity at each. The run
		// ends early once no drop can follow (past the 50th transmission),
		// every dropped segment is acked and 100 kB are through: what is
		// left is a lossless transfer.
		for until := 100 * sim.Millisecond; until <= 90*sim.Second; until += 100 * sim.Millisecond {
			if err := p.engine.Run(until); err != nil || !contiguous() {
				return false
			}
			if p.dataSent > 50 && p.sender.SndUna() >= p.lostEnd && p.receiver.RcvNxt() >= 100_000 {
				break
			}
		}
		p.sender.Stop()
		return contiguous() && p.receiver.RcvNxt() >= 100_000 // recovered and kept going
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRenoSurvivesMultipleLossesInOneWindow(t *testing.T) {
	run := func(newReno bool) *pipe {
		p := newPipe(t, SenderConfig{MSS: 1000, NewReno: newReno}, 5*sim.Millisecond)
		drops := map[int]bool{40: true, 42: true, 44: true}
		p.dropData = func(n int) bool { return drops[n] }
		p.sender.Start()
		if err := p.engine.Run(10 * sim.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		p.sender.Stop()
		return p
	}
	nr := run(true)
	if nr.sender.Timeouts() != 0 {
		t.Errorf("NewReno timed out %d times on a three-loss window", nr.sender.Timeouts())
	}
	if nr.receiver.RcvNxt() < 1_000_000 {
		t.Errorf("NewReno stalled at %d", nr.receiver.RcvNxt())
	}
	reno := run(false)
	// Classic Reno handles the same pattern strictly worse or equal:
	// either a timeout or slower progress.
	if reno.sender.Timeouts() == 0 && reno.receiver.RcvNxt() > nr.receiver.RcvNxt() {
		t.Errorf("classic Reno outperformed NewReno: %d > %d without timeouts",
			reno.receiver.RcvNxt(), nr.receiver.RcvNxt())
	}
}

func TestNewRenoFullAckExitsRecovery(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000, NewReno: true}, 5*sim.Millisecond)
	p.dropData = func(n int) bool { return n == 25 }
	p.sender.Start()
	if err := p.engine.Run(5 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.sender.Stop()
	if p.sender.inFR {
		t.Error("sender stuck in fast recovery")
	}
	if p.sender.Timeouts() != 0 || p.sender.FastRetransmits() == 0 {
		t.Errorf("timeouts=%d fastRetransmits=%d", p.sender.Timeouts(), p.sender.FastRetransmits())
	}
}

func TestBoundedTransferCompletes(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000, LimitBytes: 50_000}, 5*sim.Millisecond)
	p.sender.Start()
	if err := p.engine.Run(5 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !p.sender.Done() {
		t.Fatalf("transfer not done: sndUna=%d", p.sender.SndUna())
	}
	if p.sender.DoneAt() == 0 {
		t.Fatal("DoneAt not stamped")
	}
	if p.receiver.RcvNxt() != 50_000 {
		t.Fatalf("receiver got %d bytes, want exactly 50000", p.receiver.RcvNxt())
	}
	// The coarse timer stopped with the transfer; the queue must drain.
	if err := p.engine.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func TestBoundedTransferSurvivesLoss(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000, LimitBytes: 40_000}, 5*sim.Millisecond)
	p.dropData = func(n int) bool { return n == 10 || n == 35 }
	p.sender.Start()
	if err := p.engine.Run(20 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !p.sender.Done() || p.receiver.RcvNxt() != 40_000 {
		t.Fatalf("lossy bounded transfer incomplete: done=%v rcvNxt=%d",
			p.sender.Done(), p.receiver.RcvNxt())
	}
}

func TestUnlimitedNeverDone(t *testing.T) {
	p := newPipe(t, SenderConfig{MSS: 1000}, 5*sim.Millisecond)
	p.sender.Start()
	if err := p.engine.Run(time500()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.sender.Stop()
	if p.sender.Done() {
		t.Fatal("unlimited sender reported done")
	}
}

func time500() sim.Time { return 500 * sim.Millisecond }
