package inet

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// tableKey decodes a key from three bytes, spread over the shapes the
// table treats differently: hosts on a few nets whose span straddles
// denseSpan (dense, sparse until the row holds enough keys, then moved
// into the row), hosts far past any row, and more nets than maxAddrRows.
func tableKey(sel, a, b byte) Addr {
	net := NetID(2 + sel/4%3)
	switch sel % 4 {
	case 0, 1:
		return Addr{Net: net, Host: HostID(10 + (int(a)<<8|int(b))%6000)}
	case 2:
		return Addr{Net: net, Host: HostID(1<<20 + (int(a)<<8|int(b))*4099)}
	default:
		return Addr{Net: NetID(a%24)*1000 + NetID(b%2)<<31, Host: HostID(b)}
	}
}

// checkAgainstMap replays an op stream (4 bytes per op: kind, key
// selector, two key bytes) on an AddrTable and on a map oracle, checking
// every Get and Len, then every key either side still holds.
func checkAgainstMap(t *testing.T, ops []byte) {
	t.Helper()
	var tab AddrTable[int]
	oracle := make(map[Addr]int)
	for i := 0; i+4 <= len(ops); i += 4 {
		k := tableKey(ops[i+1], ops[i+2], ops[i+3])
		switch ops[i] % 3 {
		case 0:
			tab.Set(k, i)
			oracle[k] = i
		case 1:
			tab.Delete(k)
			delete(oracle, k)
		}
		got, ok := tab.Get(k)
		want, wantOK := oracle[k]
		if got != want || ok != wantOK {
			t.Fatalf("op %d: Get(%v) = %d, %v; want %d, %v", i/4, k, got, ok, want, wantOK)
		}
		if tab.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i/4, tab.Len(), len(oracle))
		}
	}
	for k, want := range oracle {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("final Get(%v) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	spilled := make(map[NetID]int)
	for k := range tab.sparse {
		spilled[k.Net]++
	}
	held := 0
	for _, r := range tab.rows {
		if r.spilled != spilled[r.net] {
			t.Fatalf("row %d counts %d sparse keys, the map holds %d", r.net, r.spilled, spilled[r.net])
		}
		for j, s := range r.slots {
			k := Addr{Net: r.net, Host: r.base + HostID(j)}
			if _, ok := oracle[k]; ok != s.ok {
				t.Fatalf("row slot %v holds=%v, oracle has=%v", k, s.ok, ok)
			}
			if s.ok {
				held++
			}
		}
		if r.live != held {
			t.Fatalf("row %d counts %d live keys, holds %d", r.net, r.live, held)
		}
		held = 0
	}
	for k := range tab.sparse {
		if r := tab.row(k.Net); r != nil && r.covers(k.Host) {
			t.Fatalf("sparse key %v lies inside row %d's range", k, r.net)
		}
		if _, ok := oracle[k]; !ok {
			t.Fatalf("sparse key %v not in oracle", k)
		}
	}
}

// TestAddrTableMatchesMap is the differential property test: random
// Set/Get/Delete sequences over dense, far-host and many-net keys agree
// with a map at every step. The long single-net runs hold enough keys for
// their row to outgrow denseSpan and take sparse keys back.
func TestAddrTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 4*(1+rng.Intn(600)))
		rng.Read(ops)
		checkAgainstMap(t, ops)
	}
	for trial := 0; trial < 4; trial++ {
		ops := make([]byte, 4*12000)
		rng.Read(ops)
		for i := 0; i < len(ops); i += 4 {
			ops[i] = byte(rng.Intn(2) * 2) // Set or Get, no Delete
			ops[i+1] = 0                   // one net, dense hosts
			if rng.Intn(8) == 0 {
				ops[i+1] = 2 // far host
			}
		}
		checkAgainstMap(t, ops)
	}
}

func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 3, 7, 7, 0, 3, 8, 7, 1, 3, 7, 7, 0, 3, 7, 7})
	seq := make([]byte, 0, 4*300)
	for h := 0; h < 300; h++ {
		seq = append(seq, 0, byte(h%4), byte(h), byte(h*7))
	}
	f.Add(seq)
	f.Fuzz(checkAgainstMap)
}

// TestAddrTableDenseShape pins the memory shape: scenario addresses (a
// few nets, hosts numbered from a base) land in dense rows no longer than
// the hosts they hold, whatever their order; a host past denseSpan goes to
// the sparse map, and the row takes it back once it holds enough keys to
// grow past it.
func TestAddrTableDenseShape(t *testing.T) {
	var tab AddrTable[int]
	perm := rand.New(rand.NewSource(3)).Perm(2000)
	for _, n := range []NetID{2000, 2001, 50} {
		for _, h := range perm {
			tab.Set(Addr{Net: n, Host: HostID(1010 + h)}, h)
		}
	}
	if len(tab.sparse) != 0 || len(tab.rows) != 3 {
		t.Fatalf("2000 shuffled hosts: %d rows, %d sparse keys; want 3 rows, none sparse", len(tab.rows), len(tab.sparse))
	}
	for _, r := range tab.rows {
		if r.base != 1010 || len(r.slots) != 2000 || cap(r.slots) > 2*2000 {
			t.Fatalf("row %d spans [%d, +%d) cap %d; want [1010, +2000) and cap within 2x",
				r.net, r.base, len(r.slots), cap(r.slots))
		}
	}
	far := Addr{Net: 50, Host: 1010 + 5000}
	tab.Set(far, -1)
	if _, ok := tab.sparse[far]; !ok {
		t.Fatalf("host %d past denseSpan is not sparse", far.Host)
	}
	for h := 2000; h < 2600; h++ {
		tab.Set(Addr{Net: 50, Host: HostID(1010 + h)}, h)
	}
	// 2600 keys let the row span 5202 hosts.
	tab.Set(Addr{Net: 50, Host: 1010 + 5100}, 5100)
	if len(tab.sparse) != 0 {
		t.Fatalf("far key not moved into the row that grew past it: %d sparse keys", len(tab.sparse))
	}
	if v, ok := tab.Get(far); !ok || v != -1 || tab.Len() != 6602 {
		t.Fatalf("after the move Get(far) = %d, %v and Len %d; want -1, true and 6602", v, ok, tab.Len())
	}
}

func TestNetTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tab NetTable[int]
	oracle := make(map[NetID]int)
	var buf [4]byte
	for i := 0; i < 5000; i++ {
		var n NetID
		switch rng.Intn(3) {
		case 0: // the city's clusters
			n = []NetID{50, 1000, 2000}[rng.Intn(3)] + NetID(rng.Intn(100))
		case 1:
			n = NetID(rng.Intn(4096))
		default:
			rng.Read(buf[:])
			n = NetID(binary.LittleEndian.Uint32(buf[:]))
		}
		tab.Set(n, i)
		oracle[n] = i
		probe := NetID(rng.Intn(4096))
		got, ok := tab.Get(probe)
		want, wantOK := oracle[probe]
		if got != want || ok != wantOK {
			t.Fatalf("step %d: Get(%d) = %d, %v; want %d, %v", i, probe, got, ok, want, wantOK)
		}
	}
	if tab.t.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", tab.t.Len(), len(oracle))
	}
	for n, want := range oracle {
		if got, ok := tab.Get(n); !ok || got != want {
			t.Fatalf("final Get(%d) = %d, %v; want %d, true", n, got, ok, want)
		}
	}
}
