package inet

// PacketPool is a free list of Packet structs. Hot simulation paths churn
// through one packet per application send plus one tunnel wrapper per
// encapsulation; recycling them keeps the steady-state data path
// allocation-free.
//
// A PacketPool is not safe for concurrent use: like the simulation engine
// it belongs to the single event-loop goroutine (each topology owns its
// own pool, so parallel replicas never share one).
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
