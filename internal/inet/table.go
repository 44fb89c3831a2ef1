package inet

// AddrTable maps addresses to values without hashing on the common path
// (DESIGN.md "Per-packet lookups"). Keys live in a few dense rows, one per
// network: a row holds the hosts [base, base+len(slots)) of its net, so a
// lookup is a scan of the short row list and one array load. A row spans
// at most denseSpan hosts, or twice the keys it holds when that is more,
// so its memory follows the hosts it holds, not the address values. Keys
// no row can take (a far host, or a net beyond maxAddrRows) go to a sparse
// map, so correctness never depends on address shape. The zero value is an
// empty table.
type AddrTable[V any] struct {
	rows   []addrRow[V]
	sparse map[Addr]V
	n      int
}

// addrRow is the dense part of one network. A key is stored in the row
// exactly when its host falls in the row's range; every other key of the
// net is in the sparse map.
type addrRow[V any] struct {
	net  NetID
	base HostID
	live int
	// spilled counts the net's keys in the sparse map, so growth scans
	// the map only when it holds some.
	spilled int
	slots   []addrSlot[V]
}

type addrSlot[V any] struct {
	val V
	ok  bool
}

const (
	// maxAddrRows bounds the row list a lookup scans. Per-packet tables
	// hold one to three nets in every scenario.
	maxAddrRows = 8
	// denseSpan is the host span any row may take whatever its key count.
	// Scenario hosts are numbered from a base (care-of addresses 10+i,
	// RCoAs 1000+i), so a net's population of up to a few thousand hosts
	// is dense in whatever order its keys arrive, and a table whose keys
	// churn (handoff sessions) keeps one row across the churn.
	denseSpan = 4096
)

// Len returns the number of keys in the table.
func (t *AddrTable[V]) Len() int { return t.n }

// Get returns the value stored for a.
func (t *AddrTable[V]) Get(a Addr) (v V, ok bool) {
	for i := range t.rows {
		if r := &t.rows[i]; r.net == a.Net {
			if j := uint(a.Host - r.base); j < uint(len(r.slots)) {
				s := &r.slots[j]
				return s.val, s.ok
			}
			break
		}
	}
	if len(t.sparse) != 0 {
		v, ok = t.sparse[a]
	}
	return v, ok
}

// Set stores v for a, replacing any previous value.
func (t *AddrTable[V]) Set(a Addr, v V) {
	r := t.row(a.Net)
	switch {
	case r != nil && r.covers(a.Host):
	case r == nil && len(t.rows) < maxAddrRows:
		// A net without a row has no sparse keys: rows are never removed,
		// so its earlier keys would have made the row.
		t.rows = append(t.rows, addrRow[V]{net: a.Net, base: a.Host, slots: make([]addrSlot[V], 1)})
		r = &t.rows[len(t.rows)-1]
	case r == nil || !t.grow(r, a.Host):
		if _, ok := t.sparse[a]; !ok {
			t.n++
			if r != nil {
				r.spilled++
			}
		}
		if t.sparse == nil {
			t.sparse = make(map[Addr]V)
		}
		t.sparse[a] = v
		return
	}
	s := &r.slots[a.Host-r.base]
	if !s.ok {
		s.ok = true
		r.live++
		t.n++
	}
	s.val = v
}

// Delete removes a's key, if present.
func (t *AddrTable[V]) Delete(a Addr) {
	r := t.row(a.Net)
	if r != nil && r.covers(a.Host) {
		s := &r.slots[a.Host-r.base]
		if s.ok {
			*s = addrSlot[V]{}
			r.live--
			t.n--
		}
		return
	}
	if _, ok := t.sparse[a]; ok {
		delete(t.sparse, a)
		t.n--
		if r != nil {
			r.spilled--
		}
	}
}

func (t *AddrTable[V]) row(n NetID) *addrRow[V] {
	for i := range t.rows {
		if t.rows[i].net == n {
			return &t.rows[i]
		}
	}
	return nil
}

func (r *addrRow[V]) covers(h HostID) bool { return uint(h-r.base) < uint(len(r.slots)) }

// grow widens r to cover host h, moving the sparse keys the wider range
// now covers into it. It refuses (returning false) when the new span would
// exceed both denseSpan and twice the row's keys.
func (t *AddrTable[V]) grow(r *addrRow[V], h HostID) bool {
	lo := min(uint64(r.base), uint64(h))
	hi := max(uint64(r.base)+uint64(len(r.slots)), uint64(h)+1)
	if hi-lo > max(denseSpan, 2*uint64(r.live+1)) {
		return false
	}
	if lo < uint64(r.base) {
		slots := make([]addrSlot[V], hi-lo)
		copy(slots[uint64(r.base)-lo:], r.slots)
		r.slots, r.base = slots, HostID(lo)
	} else {
		r.slots = append(r.slots, make([]addrSlot[V], hi-lo-uint64(len(r.slots)))...)
	}
	if r.spilled == 0 {
		return true
	}
	for k, v := range t.sparse {
		if k.Net == r.net && r.covers(k.Host) {
			r.slots[k.Host-r.base] = addrSlot[V]{val: v, ok: true}
			r.live++
			r.spilled--
			delete(t.sparse, k)
		}
	}
	return true
}

// NetTable maps network prefixes to values: a router's prefix routes. Nets
// are split into blocks of 64 consecutive IDs, each a dense row of
// an AddrTable, so the scattered prefixes of a scenario (a handful each
// near 50, 1000 and 2000 in the city) take a few short rows, not a slice
// spanning every NetID.
type NetTable[V any] struct{ t AddrTable[V] }

const netBlockBits = 6

func netKey(n NetID) Addr {
	return Addr{Net: n >> netBlockBits, Host: HostID(n & (1<<netBlockBits - 1))}
}

// Get returns the value stored for n.
func (t *NetTable[V]) Get(n NetID) (V, bool) { return t.t.Get(netKey(n)) }

// Set stores v for n, replacing any previous value.
func (t *NetTable[V]) Set(n NetID, v V) { t.t.Set(netKey(n), v) }
