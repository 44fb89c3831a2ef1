package mip

import (
	"testing"
	"testing/quick"

	"repro/internal/inet"
	"repro/internal/sim"
)

func addr(n, h uint32) inet.Addr { return inet.Addr{Net: inet.NetID(n), Host: inet.HostID(h)} }

func TestBindingCacheUpdateLookup(t *testing.T) {
	c := NewBindingCache()
	key, coa := addr(5, 1), addr(10, 7)
	if !c.Update(key, coa, 1, 10*sim.Second, 0) {
		t.Fatal("Update rejected on empty cache")
	}
	b, ok := c.Lookup(key, 5*sim.Second)
	if !ok || b.CoA != coa {
		t.Fatalf("Lookup = %+v/%t, want coa %v", b, ok, coa)
	}
}

func TestBindingCacheExpiry(t *testing.T) {
	c := NewBindingCache()
	key := addr(5, 1)
	c.Update(key, addr(10, 7), 1, 10*sim.Second, 0)
	if _, ok := c.Lookup(key, 10*sim.Second); ok {
		t.Fatal("binding live exactly at expiry instant")
	}
	if _, ok := c.Lookup(key, 9*sim.Second); !ok {
		t.Fatal("binding dead before expiry")
	}
}

func TestBindingCacheRejectsStaleSeq(t *testing.T) {
	c := NewBindingCache()
	key := addr(5, 1)
	c.Update(key, addr(10, 7), 10, 10*sim.Second, 0)
	if c.Update(key, addr(11, 7), 9, 10*sim.Second, 0) {
		t.Fatal("stale sequence accepted")
	}
	if b, _ := c.Lookup(key, sim.Second); b.CoA != addr(10, 7) {
		t.Fatal("stale update overwrote binding")
	}
	// Equal sequence refreshes (retransmission).
	if !c.Update(key, addr(10, 7), 10, 20*sim.Second, sim.Second) {
		t.Fatal("retransmission rejected")
	}
	// A lapsed binding accepts any sequence.
	if !c.Update(key, addr(12, 7), 1, 10*sim.Second, 30*sim.Second) {
		t.Fatal("update after expiry rejected")
	}
}

func TestBindingCacheSeqWraparound(t *testing.T) {
	c := NewBindingCache()
	key := addr(5, 1)
	c.Update(key, addr(10, 7), 65535, 100*sim.Second, 0)
	// 0 is "greater" than 65535 in serial arithmetic.
	if !c.Update(key, addr(11, 7), 0, 100*sim.Second, sim.Second) {
		t.Fatal("wraparound sequence rejected")
	}
	if b, _ := c.Lookup(key, 2*sim.Second); b.CoA != addr(11, 7) {
		t.Fatal("wraparound update not applied")
	}
}

func TestBindingCacheRemovePurge(t *testing.T) {
	c := NewBindingCache()
	c.Update(addr(5, 1), addr(10, 1), 1, 10*sim.Second, 0)
	c.Update(addr(5, 2), addr(10, 2), 1, 20*sim.Second, 0)
	c.Remove(addr(5, 1))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after Remove, want 1", c.Len())
	}
	if _, ok := c.Lookup(addr(5, 1), 0); ok {
		t.Fatal("removed binding still found")
	}
}

func TestSeqLess(t *testing.T) {
	tests := []struct {
		a, b uint16
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{65535, 0, true},  // wraparound
		{0, 65535, false}, // wraparound
		{0, 32768, true},
	}
	for _, tt := range tests {
		if got := seqLess(tt.a, tt.b); got != tt.want {
			t.Errorf("seqLess(%d, %d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: after any update sequence, every live entry's CoA equals the
// CoA of the highest-sequence accepted update for that key.
func TestPropertyBindingMonotonicSeq(t *testing.T) {
	f := func(seqs []uint8) bool {
		c := NewBindingCache()
		key := addr(1, 1)
		var best int16 = -1
		for _, s := range seqs {
			coa := addr(2, uint32(s))
			if c.Update(key, coa, uint16(s), 100*sim.Second, 0) {
				if best >= 0 && seqLess(uint16(s), uint16(best)) {
					return false // accepted a stale update
				}
				best = int16(s)
			}
		}
		if best < 0 {
			return c.Len() == 0
		}
		b, ok := c.Lookup(key, sim.Second)
		return ok && b.CoA == addr(2, uint32(best))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBindingLookupZeroAlloc pins the anchor's per-packet binding lookup:
// a hit and a miss allocate nothing.
func TestBindingLookupZeroAlloc(t *testing.T) {
	c := NewBindingCache()
	for h := uint32(1001); h <= 1500; h++ {
		c.Update(addr(50, h), addr(2000, h-990), 0, 3600*sim.Second, 0)
	}
	for _, tc := range []struct {
		name string
		key  inet.Addr
		want bool
	}{
		{"hit", addr(50, 1200), true},
		{"miss", addr(50, 1600), false},
	} {
		var ok bool
		if avg := testing.AllocsPerRun(200, func() { _, ok = c.Lookup(tc.key, sim.Second) }); avg != 0 {
			t.Errorf("%s: Lookup allocates %.2f times; want 0", tc.name, avg)
		}
		if ok != tc.want {
			t.Errorf("%s: Lookup(%v) found=%v, want %v", tc.name, tc.key, ok, tc.want)
		}
	}
}
