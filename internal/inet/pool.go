package inet

// PacketPool is a free list of Packet structs. Hot simulation paths churn
// through one packet per application send plus one tunnel wrapper per
// encapsulation; recycling them keeps the steady-state data path
// allocation-free.
//
// A PacketPool is not safe for concurrent use: like the simulation engine
// it belongs to the single event-loop goroutine. A topology that runs
// alone owns its pool, so parallel replicas never share one; the shards
// of a partitioned run each own one and trade free packets only through
// Rebalance at the barrier.
//
// Ownership discipline: a packet may be put back only by its single owner
// once no other component can reach it — in this simulator, the final
// deliver/drop sinks. Put zeroes every field, so a recycled packet carries
// nothing into its next life; shared Payload values and cloned Inner
// chains held elsewhere are unaffected (the pool never follows pointers).
type PacketPool struct {
	free []*Packet
	// Traffic counters: see PoolStats.
	gets, fresh, puts uint64
}

// PoolStats is a snapshot of a PacketPool's traffic. Gets-Puts is the
// number of pooled packets out in the simulation, and Fresh is the pool's
// whole heap footprint: a pool whose Fresh tracks packets sent rather than
// packets in flight is being fed from the heap somewhere. Puts never
// exceeds Gets when every recycled packet was handed out by the pool.
type PoolStats struct {
	// Gets counts packets handed out; Fresh how many of them the pool had
	// to allocate because its free list was empty.
	Gets, Fresh uint64
	// Puts counts packets recycled (double releases not included).
	Puts uint64
	// Len is the number of packets resting in the pool.
	Len int
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pl *PacketPool) Get() *Packet {
	pl.gets++
	if n := len(pl.free); n > 0 {
		pkt := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pkt.pooled = false
		return pkt
	}
	pl.fresh++
	return &Packet{}
}

// Put recycles a packet. It is idempotent per pool cycle: releasing a
// packet that is already resting in the pool is a no-op, so a double
// release cannot hand the same slot out twice. Put does not follow Inner;
// release each layer of an encapsulation chain explicitly.
func (pl *PacketPool) Put(pkt *Packet) {
	if pkt == nil || pkt.pooled {
		return
	}
	*pkt = Packet{pooled: true}
	pl.puts++
	pl.free = append(pl.free, pkt)
}

// Len returns the number of packets resting in the pool.
func (pl *PacketPool) Len() int { return len(pl.free) }

// Stats returns the pool's traffic counters.
func (pl *PacketPool) Stats() PoolStats {
	return PoolStats{Gets: pl.gets, Fresh: pl.fresh, Puts: pl.puts, Len: len(pl.free)}
}

// Rebalance moves free packets from pools that hold more than they ever
// allocated to pools that hold fewer. A pool's surplus, Len − Fresh, is
// its Puts − Gets plus the packets Rebalance moved into it minus those it
// moved out: positive on a sink, where more packets die than are born,
// negative on a source. The walk takes sinks and sources in pool order:
// the first sink feeds the first source until one of them is settled,
// each source up to its deficit. A sink never gives more than it holds,
// since its surplus is part of its free list. Transfers count in neither
// Gets nor Puts, so Σ(Gets − Puts) is still the number of packets out.
// Σ(Len − Fresh) is minus that number, so afterwards no pool keeps a
// surplus. A deficit left unmet waits for a later call: sources and sinks
// need not be busy between the same two calls.
//
// Rebalance costs O(len(pools) + packets moved) and returns the number
// moved. It is not safe for concurrent use: call it only while nothing
// else can touch any of the pools.
func Rebalance(pools []*PacketPool) int {
	moved, next := 0, 0
	for _, from := range pools {
		give := from.surplus()
		for give > 0 {
			for next < len(pools) && pools[next].surplus() >= 0 {
				next++
			}
			if next == len(pools) {
				return moved
			}
			to := pools[next]
			n := min(give, -to.surplus())
			k := len(from.free) - n
			to.free = append(to.free, from.free[k:]...)
			clear(from.free[k:])
			from.free = from.free[:k]
			give -= n
			moved += n
		}
	}
	return moved
}

// surplus returns how many more free packets the pool holds than it ever
// allocated (negative when it holds fewer).
func (pl *PacketPool) surplus() int { return len(pl.free) - int(pl.fresh) }
