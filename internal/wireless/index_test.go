package wireless

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
)

// wobble is a Motion without a NextBoundary method, exercising the
// unindexed fallback of the position-bucket index.
type wobble struct{ center, amp float64 }

func (w wobble) Pos(at sim.Time) float64 {
	return w.center + w.amp*math.Sin(at.Seconds())
}

func TestAddrIndexChurn(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e)
	a := NewStation("a", m, Fixed(0), StationConfig{})
	b := NewStation("b", m, Fixed(1), StationConfig{})
	addr := inet.Addr{Net: 1, Host: 1}

	indexed := func() *Station {
		s, _ := m.addrIndex.Get(addr)
		return s
	}

	a.AddAddr(addr)
	if indexed() != a {
		t.Fatalf("addr not indexed to a")
	}
	a.AddAddr(addr) // idempotent re-add by the owner
	if indexed() != a {
		t.Fatalf("re-add changed the owner")
	}
	a.RemoveAddr(addr)
	if _, ok := m.addrIndex.Get(addr); ok {
		t.Fatalf("addr still indexed after removal")
	}
	b.AddAddr(addr) // released addresses can be reclaimed
	if indexed() != b {
		t.Fatalf("addr not indexed to b after reclaim")
	}
	// Removing an address you no longer own must not evict the new owner.
	a.RemoveAddr(addr)
	if indexed() != b {
		t.Fatalf("stale removal evicted the new owner")
	}
	if a.HasAddr(addr) || !b.HasAddr(addr) {
		t.Fatalf("HasAddr disagrees with the index: a=%v b=%v", a.HasAddr(addr), b.HasAddr(addr))
	}
}

func TestAddrIndexDoubleClaimPanics(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e)
	a := NewStation("a", m, Fixed(0), StationConfig{})
	b := NewStation("b", m, Fixed(1), StationConfig{})
	addr := inet.Addr{Net: 1, Host: 1}
	a.AddAddr(addr)
	defer func() {
		if recover() == nil {
			t.Fatalf("claiming a live address from a second station did not panic")
		}
	}()
	b.AddAddr(addr)
}

// TestDeliveryFollowsHandover moves an address between two stations (the
// care-of address churn of a handover) and checks the indexed downlink
// delivery follows the owner.
func TestDeliveryFollowsHandover(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e)
	ap := NewAccessPoint("ap", m, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	a := NewStation("a", m, Fixed(10), StationConfig{})
	b := NewStation("b", m, Fixed(-10), StationConfig{})
	a.Associate(ap)
	b.Associate(ap)
	addr := inet.Addr{Net: 1, Host: 1}
	var gotA, gotB []uint64
	a.OnPacket = func(pkt *inet.Packet) { gotA = append(gotA, pkt.ID) }
	b.OnPacket = func(pkt *inet.Packet) { gotB = append(gotB, pkt.ID) }

	a.AddAddr(addr)
	e.At(0, func() { ap.transmitDown(&inet.Packet{ID: 1, Dst: addr, Size: 100}) })
	e.At(10*sim.Millisecond, func() {
		a.RemoveAddr(addr)
		b.AddAddr(addr)
		ap.transmitDown(&inet.Packet{ID: 2, Dst: addr, Size: 100})
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 1 || gotA[0] != 1 {
		t.Fatalf("station a received %v, want [1]", gotA)
	}
	if len(gotB) != 1 || gotB[0] != 2 {
		t.Fatalf("station b received %v, want [2]", gotB)
	}
}

// bruteCandidates is the classic full scan the bucket index replaced.
func bruteCandidates(m *Medium, pos, radius float64, now sim.Time) []*Station {
	var out []*Station
	for _, s := range m.stations {
		if math.Abs(s.Pos(now)-pos) <= radius {
			out = append(out, s)
		}
	}
	return out
}

// TestBucketCandidatesMatchBruteForce checks, over a mixed population of
// motions and a sweep of instants, that the in-coverage subset of the
// bucket index's candidates equals the classic full scan — same stations,
// same (registration) order.
func TestBucketCandidatesMatchBruteForce(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e)
	ap := NewAccessPoint("ap", m, APConfig{Pos: 0, Radius: 112})
	rng := sim.NewRNG(99)
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	for i := 0; i < 60; i++ {
		var motion Motion
		switch i % 4 {
		case 0:
			motion = Fixed(uniform(-600, 600))
		case 1:
			motion = Linear{Start: uniform(-600, 600), Speed: uniform(-25, 25),
				From: sim.Time(rng.Intn(5)) * sim.Second}
		case 2:
			a := uniform(-600, 600)
			motion = PingPong{A: a, B: a + uniform(-400, 400), Speed: uniform(1, 30),
				From: sim.Time(rng.Intn(5)) * sim.Second}
		default:
			motion = wobble{center: uniform(-300, 300), amp: uniform(0, 200)}
		}
		NewStation(fmt.Sprintf("s%d", i), m, motion, StationConfig{})
	}
	// Boundary-exact placements: stations sitting precisely on bucket edges.
	for i := -2; i <= 2; i++ {
		NewStation(fmt.Sprintf("edge%d", i), m, Fixed(float64(i)*defaultBucketWidth), StationConfig{})
	}

	check := func() {
		now := e.Now()
		want := bruteCandidates(m, ap.cfg.Pos, ap.cfg.Radius, now)
		var got []*Station
		for _, s := range m.buckets.candidates(m, ap.cfg.Pos, ap.cfg.Radius) {
			if ap.Covers(s.Pos(now)) {
				got = append(got, s)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("t=%v: %d in-coverage candidates, brute force found %d", now, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("t=%v: candidate %d is %s, brute force has %s (order must match the classic scan)",
					now, i, got[i].name, want[i].name)
			}
		}
	}
	for tick := 0; tick <= 120; tick++ {
		e.At(sim.Time(tick)*500*sim.Millisecond, check)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestBucketBoundaryCrossing drives a linear mover across several bucket
// boundaries and checks beacon audibility flips exactly with true coverage.
func TestBucketBoundaryCrossing(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e)
	ap := NewAccessPoint("ap", m, APConfig{Pos: 0, Radius: 112})
	ap.adv = Advertisement{AP: ap, Router: inet.Addr{Net: 1, Host: 1}, Net: 1}
	// Starts three buckets to the left of coverage, crosses it, and leaves
	// to the right: every boundary crossing in both directions is exercised.
	st := NewStation("mover", m, Linear{Start: -400, Speed: 20}, StationConfig{})
	heard := false
	st.OnRA = func(Advertisement) { heard = true }

	for tick := 0; tick <= 40; tick++ {
		e.At(sim.Time(tick)*sim.Second, func() {
			heard = false
			ap.beacon()
			now := e.Now()
			if want := ap.Covers(st.Pos(now)); heard != want {
				t.Fatalf("t=%v pos=%.1f: beacon heard=%v, want %v", now, st.Pos(now), heard, want)
			}
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}

	// A ping-pong mover bouncing through the coverage edge.
	e2 := sim.NewEngine()
	m2 := NewMedium(e2)
	ap2 := NewAccessPoint("ap2", m2, APConfig{Pos: 0, Radius: 112})
	ap2.adv = Advertisement{AP: ap2, Router: inet.Addr{Net: 1, Host: 1}, Net: 1}
	st2 := NewStation("bouncer", m2, PingPong{A: -200, B: 50, Speed: 15}, StationConfig{})
	heard2 := false
	st2.OnRA = func(Advertisement) { heard2 = true }
	for tick := 0; tick <= 200; tick++ {
		e2.At(sim.Time(tick)*250*sim.Millisecond, func() {
			heard2 = false
			ap2.beacon()
			now := e2.Now()
			if want := ap2.Covers(st2.Pos(now)); heard2 != want {
				t.Fatalf("t=%v pos=%.1f: beacon heard=%v, want %v", now, st2.Pos(now), heard2, want)
			}
		})
	}
	if err := e2.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestAddrIndexLookupZeroAlloc pins the downlink delivery lookup
// (AccessPoint.deliver's owner probe): a hit and a miss allocate nothing.
func TestAddrIndexLookupZeroAlloc(t *testing.T) {
	m := NewMedium(sim.NewEngine())
	var owned *Station
	for i := 0; i < 500; i++ {
		s := NewStation(fmt.Sprintf("s%d", i), m, Fixed(0), StationConfig{})
		s.AddAddr(inet.Addr{Net: 2000, Host: inet.HostID(10 + i)})
		owned = s
	}
	for _, tc := range []struct {
		name string
		addr inet.Addr
		want *Station
	}{
		{"hit", inet.Addr{Net: 2000, Host: 509}, owned},
		{"miss", inet.Addr{Net: 2001, Host: 509}, nil},
	} {
		var got *Station
		if avg := testing.AllocsPerRun(200, func() { got = m.owner(tc.addr) }); avg != 0 {
			t.Errorf("%s: owner lookup allocates %.2f times; want 0", tc.name, avg)
		}
		if got != tc.want {
			t.Errorf("%s: owner(%v) = %v, want %v", tc.name, tc.addr, got, tc.want)
		}
	}
}
