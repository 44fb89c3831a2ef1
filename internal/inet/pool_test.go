package inet

import (
	"math/rand"
	"testing"
)

// drive hands out gets packets from pl, then recycles puts packets that
// were born elsewhere (the traffic of a pool whose packets die on another
// shard, or that receives another shard's dead packets).
func drive(pl *PacketPool, gets, puts int) {
	for i := 0; i < gets; i++ {
		pl.Get()
	}
	for i := 0; i < puts; i++ {
		pl.Put(new(Packet))
	}
}

func lens(pools []*PacketPool) []int {
	out := make([]int, len(pools))
	for i, pl := range pools {
		out[i] = pl.Len()
	}
	return out
}

// TestRebalanceSinksFeedSourcesInPoolOrder walks one barrier by hand:
// sinks (pools that recycled more than they handed out) feed sources
// (pools that handed out more than they recycled) in pool order, each
// source up to its deficit, and the traffic counters do not move.
func TestRebalanceSinksFeedSourcesInPoolOrder(t *testing.T) {
	pools := make([]*PacketPool, 5)
	for i := range pools {
		pools[i] = new(PacketPool)
	}
	drive(pools[0], 0, 3) // sink +3
	drive(pools[1], 2, 0) // source −2
	drive(pools[2], 0, 4) // sink +4
	drive(pools[3], 4, 0) // source −4
	drive(pools[4], 5, 0) // source −5
	s0 := append([]*Packet(nil), pools[0].free...)
	s2 := append([]*Packet(nil), pools[2].free...)
	var before []PoolStats
	for _, pl := range pools {
		before = append(before, pl.Stats())
	}

	if got := Rebalance(pools); got != 7 {
		t.Fatalf("Rebalance moved %d packets, want 7", got)
	}
	// Pool 0 settles pool 1 and starts on pool 3; pool 2 finishes pool 3
	// and gives its last packet to pool 4.
	want := []int{0, 2, 0, 4, 1}
	for i, n := range lens(pools) {
		if n != want[i] {
			t.Fatalf("free lists after Rebalance = %v, want %v", lens(pools), want)
		}
	}
	// Each transfer takes the giver's most recently recycled packets.
	if pools[1].free[0] != s0[1] || pools[1].free[1] != s0[2] || pools[3].free[0] != s0[0] {
		t.Fatal("pool 1 must get the top of pool 0's free list before pool 3 gets the rest")
	}
	if pools[3].free[1] != s2[1] || pools[4].free[0] != s2[0] {
		t.Fatal("pool 2 must settle pool 3 before it feeds pool 4")
	}
	for i, pl := range pools {
		got := pl.Stats()
		if got.Gets != before[i].Gets || got.Puts != before[i].Puts || got.Fresh != before[i].Fresh {
			t.Fatalf("pool %d: counters moved from %+v to %+v", i, before[i], got)
		}
	}

	// A second call with no traffic in between moves nothing.
	if got := Rebalance(pools); got != 0 {
		t.Fatalf("second Rebalance with no traffic moved %d packets", got)
	}
	for i, n := range lens(pools) {
		if n != want[i] {
			t.Fatalf("free lists after an idle Rebalance = %v, want %v", lens(pools), want)
		}
	}
}

// TestRebalanceRandomTraffic checks the step's invariants over random
// traffic and barrier points: free packets are conserved, no pool gives
// more than it holds, only pools holding a surplus give and only pools
// short of their allocations take (each at most its deficit), no surplus
// survives the call, and the packets out are unchanged.
func TestRebalanceRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pools := make([]*PacketPool, 6)
	for i := range pools {
		pools[i] = new(PacketPool)
	}
	out := make([][]*Packet, len(pools))
	for round := 0; round < 500; round++ {
		// Packets are born on some pools and die on others.
		for i, pl := range pools {
			for k := rng.Intn(8); k > 0; k-- {
				out[i] = append(out[i], pl.Get())
			}
		}
		for i := range pools {
			for k := rng.Intn(8); k > 0 && len(out[i]) > 0; k-- {
				n := len(out[i]) - 1
				pools[rng.Intn(len(pools))].Put(out[i][n])
				out[i] = out[i][:n]
			}
		}
		if rng.Intn(3) != 0 {
			continue
		}
		surplus := make([]int, len(pools))
		var held, live int64
		before := lens(pools)
		for i, pl := range pools {
			surplus[i] = pl.Len() - int(pl.fresh)
			held += int64(pl.Len())
			live += int64(pl.gets) - int64(pl.puts)
		}
		moved := Rebalance(pools)
		var gave int
		for i, pl := range pools {
			d := pl.Len() - before[i]
			switch {
			case d < 0 && (surplus[i] <= 0 || -d > surplus[i] || -d > before[i]):
				t.Fatalf("round %d: pool %d (surplus %d, held %d) gave %d", round, i, surplus[i], before[i], -d)
			case d > 0 && (surplus[i] >= 0 || d > -surplus[i]):
				t.Fatalf("round %d: pool %d (surplus %d) took %d", round, i, surplus[i], d)
			case d < 0:
				gave -= d
			}
			if pl.Len() > int(pl.fresh) {
				t.Fatalf("round %d: pool %d kept a surplus: %d free, %d allocated", round, i, pl.Len(), pl.fresh)
			}
			held -= int64(pl.Len())
			live -= int64(pl.gets) - int64(pl.puts)
		}
		if held != 0 || live != 0 || gave != moved {
			t.Fatalf("round %d: free packets off by %d, packets out off by %d, moved %d reported %d",
				round, held, live, gave, moved)
		}
	}
}
