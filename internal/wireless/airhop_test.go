package wireless

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// airArrival is one delivery observed at a receiver: when and which packet.
type airArrival struct {
	at sim.Time
	id uint64
}

// observations builds one golden line: space-separated observation tokens.
type observations struct{ b strings.Builder }

func (o *observations) add(format string, args ...any) {
	if o.b.Len() > 0 {
		o.b.WriteByte(' ')
	}
	fmt.Fprintf(&o.b, format, args...)
}

// compareGolden checks got, one line per trial, line for line against the
// recorded file and reports the first diverging observation of each line
// that differs.
func compareGolden(t *testing.T, path string, got []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s records %d trials, the test ran %d", path, len(want), len(got))
	}
	token := func(f []string, k int) string {
		if k < len(f) {
			return f[k]
		}
		return "<end>"
	}
	for n := range want {
		if got[n] == want[n] {
			continue
		}
		w, g := strings.Fields(want[n]), strings.Fields(got[n])
		k := 0
		for k < len(w) && k < len(g) && w[k] == g[k] {
			k++
		}
		t.Errorf("%s line %d: first divergence at observation %d: recorded %s, got %s",
			path, n+1, k, token(w, k), token(g, k))
	}
}

// airSide is one AR–AP–station column: the radios, the observations, and
// the tallies the conservation check needs. Its arrival handlers are
// wrapped to count the frames that landed.
type airSide struct {
	ar   *netsim.Router
	ap   *AccessPoint
	st   *Station
	link *netsim.Link
	addr inet.Addr

	down     []airArrival // packets delivered to the station
	up       []airArrival // uplink packets reaching the router
	airDrops []uint64
	txDrops  []uint64

	downTries, downRejects, downArrivals      uint64
	upTries, upRejects, upFlushes, upArrivals uint64
	arriving                                  bool
	sending                                   *inet.Packet
}

func (a *airSide) hook(e *sim.Engine) {
	a.st.OnPacket = func(pkt *inet.Packet) { a.down = append(a.down, airArrival{e.Now(), pkt.ID}) }
	a.ar.LocalDeliver = func(in *netsim.Iface, pkt *inet.Packet) bool {
		a.up = append(a.up, airArrival{e.Now(), pkt.ID})
		return true
	}
	a.ap.AirDropHook = func(pkt *inet.Packet) {
		a.airDrops = append(a.airDrops, pkt.ID)
		if !a.arriving {
			a.downRejects++ // refused at admission, not lost on arrival
		}
	}
	a.st.TxDropHook = func(pkt *inet.Packet) {
		a.txDrops = append(a.txDrops, pkt.ID)
		if pkt == a.sending {
			a.upRejects++
		} else {
			a.upFlushes++ // accepted, then flushed by a NIC reset
		}
	}
	apArrive, stArrive := a.ap.airFn, a.st.airFn
	a.ap.airFn = func() {
		a.arriving = true
		apArrive()
		a.arriving = false
		a.downArrivals++
	}
	a.st.airFn = func() {
		stArrive()
		a.upArrivals++
	}
}

// transmitDown injects a downlink frame at the AP.
func (a *airSide) transmitDown(pkt *inet.Packet) {
	a.downTries++
	a.ap.transmitDown(pkt)
}

// send injects an uplink frame at the station.
func (a *airSide) send(pkt *inet.Packet) {
	a.upTries++
	a.sending = pkt
	a.st.Send(pkt)
	a.sending = nil
}

// checkConservation asserts per-direction conservation at the current
// instant. Downlink: every frame the AP accepted (injected or bounced
// back from the router, minus admission drops) has been sent, is queued,
// or is in service, and every sent frame has arrived or is on the air.
// Uplink likewise, with frames flushed by a NIC reset accounted as gone.
func (a *airSide) checkConservation(t *testing.T) {
	t.Helper()
	now := a.ap.engine.Now()
	check := func(dir string, sent uint64, queued, busy, inflight int, accepted, flushed, arrivals uint64) {
		inService := min(busy, 1)
		if got := sent + uint64(queued+inService) + flushed; got != accepted {
			t.Errorf("%s at %v: sent %d + queued %d + in service %d + flushed %d = %d, accepted %d",
				dir, now, sent, queued, inService, flushed, got, accepted)
		}
		if onAir := uint64(inflight - busy); sent != arrivals+onAir {
			t.Errorf("%s at %v: sent %d, arrived %d + on the air %d", dir, now, sent, arrivals, onAir)
		}
	}
	apSent, apQueued := a.ap.Sent(), a.ap.QueueLen()
	check("downlink", apSent, apQueued, a.ap.clock.occupancy(), a.ap.inflight.Len(),
		a.downTries+a.link.B().Delivers()-a.downRejects, 0, a.downArrivals)
	stSent, stQueued := a.st.Sent(), a.st.QueueLen()
	check("uplink", stSent, stQueued, a.st.clock.occupancy(), a.st.inflight.Len(),
		a.upTries-a.upRejects, a.upFlushes, a.upArrivals)
}

// TestAirMatchesClassicGolden replays the seeded radio trials recorded
// from the two-event transmit path (txDone, then arrival) that the
// analytic path replaced (DESIGN.md §13): random bandwidth/AirDelay/
// queue-limit/blackout configurations carry downlink bursts, uplink
// bursts, and link transitions (detach, switch, re-associate — exercising
// the NIC-reset repair) through one AP+station column. Every observable —
// delivery times and order in both directions, drop decisions and hook
// order, the Sent/QueueLen/drop counters read at random mid-run instants,
// and the final counters — must match testdata/air_classic.golden line for
// line, and conservation holds in both directions at every probe. Line 43
// (trial 42, a zero-bandwidth radio) is pinned to the analytic path's
// contiguous-chain order; see TestZeroBandwidthChainsStayContiguous. Runs
// under -race in CI.
func TestAirMatchesClassicGolden(t *testing.T) {
	bands := []int64{0, 125_000, 1_000_000, 11_000_000, 1_000_000_000}
	delays := []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond}
	qlims := []int{0, 1, 2, 5, 20}
	blackouts := []sim.Time{0, sim.Millisecond, 50 * sim.Millisecond}

	var lines []string
	for trial := 0; trial < 80; trial++ {
		rng := sim.NewRNG(int64(trial)*7919 + 1)
		band := bands[rng.Intn(len(bands))]
		delay := delays[rng.Intn(len(delays))]
		qlim := qlims[rng.Intn(len(qlims))]
		blackout := blackouts[rng.Intn(len(blackouts))]
		bounce := rng.Intn(2) == 1
		start := float64(rng.Intn(301) - 150) // in or out of the 112 m radius
		speed := float64(rng.Intn(41) - 20)

		e := sim.NewEngine()
		topo := netsim.NewTopology(e)
		medium := NewMedium(e)
		const off, net = 1e6, inet.NetID(20)
		ar := netsim.NewRouter("ar-f", inet.Addr{Net: net, Host: 1})
		ap := NewAccessPoint("ap-f", medium, APConfig{
			Pos: off, Radius: 112, BandwidthBPS: band, AirDelay: delay,
			QueueLimit: qlim, ReturnUndeliverable: bounce,
		})
		link := topo.Connect(ar, ap, netsim.LinkConfig{BandwidthBPS: 100_000_000, Delay: sim.Millisecond / 2})
		ar.AddPrefixRoute(net, link.A())
		st := NewStation("mh-f", medium, Linear{Start: off + start, Speed: speed}, StationConfig{
			BandwidthBPS: band, AirDelay: delay, L2HandoffDelay: blackout, QueueLimit: qlim,
		})
		s := &airSide{ar: ar, ap: ap, st: st, link: link, addr: inet.Addr{Net: net, Host: 5}}
		st.AddAddr(s.addr)
		st.Associate(ap)
		s.hook(e)

		var nextID uint64
		for k, bursts := 0, 4+rng.Intn(12); k < bursts; k++ {
			at := sim.Time(rng.Intn(40)) * sim.Millisecond
			uplink := rng.Intn(2) == 1
			n := 1 + rng.Intn(6)
			sizes := make([]int, n)
			for j := range sizes {
				sizes[j] = 40 + rng.Intn(1461)
			}
			e.At(at, func() {
				for _, size := range sizes {
					nextID++
					if uplink {
						s.send(&inet.Packet{ID: nextID, Src: s.addr, Dst: ar.Addr(),
							Proto: inet.ProtoControl, Size: size})
					} else {
						s.transmitDown(&inet.Packet{ID: nextID, Dst: s.addr,
							Proto: inet.ProtoUDP, Size: size})
					}
				}
			})
		}
		// Link transitions: detaches and switches hit mid-serialization,
		// exercising the NIC-reset repair and hold queue.
		for k, trans := 0, 2+rng.Intn(5); k < trans; k++ {
			at := sim.Time(rng.Intn(45)) * sim.Millisecond
			op := rng.Intn(3)
			e.At(at, func() {
				switch op {
				case 0:
					st.Detach()
				case 1:
					st.SwitchTo(ap)
				case 2:
					st.Associate(ap)
				}
			})
		}
		var probes []string
		for k := 0; k < 8; k++ {
			at := sim.Time(rng.Intn(50)) * sim.Millisecond
			e.At(at, func() {
				probes = append(probes, fmt.Sprintf("p%d:%d,%d,%d,%d,%d,%d", int64(e.Now()),
					ap.QueueLen(), ap.Sent(), ap.AirDrops(), st.QueueLen(), st.Sent(), st.TxDrops()))
				s.checkConservation(t)
			})
		}

		if err := e.RunAll(); err != nil {
			t.Fatalf("trial %d: RunAll: %v", trial, err)
		}
		s.checkConservation(t)

		var obs observations
		obs.add("t%d", trial)
		for _, a := range s.down {
			obs.add("d%d:%d", int64(a.at), a.id)
		}
		for _, a := range s.up {
			obs.add("u%d:%d", int64(a.at), a.id)
		}
		for _, id := range s.airDrops {
			obs.add("a%d", id)
		}
		for _, id := range s.txDrops {
			obs.add("x%d", id)
		}
		for _, p := range probes {
			obs.add("%s", p)
		}
		obs.add("f%d,%d,%d,%d", ap.Sent(), ap.AirDrops(), st.Sent(), st.TxDrops())
		lines = append(lines, obs.b.String())
	}
	compareGolden(t, "testdata/air_classic.golden", lines)
}

// TestZeroBandwidthChainsStayContiguous pins the equal-instant order of
// zero-bandwidth radios (DESIGN.md §13): two stations admit frames at one
// instant, interleaved, and each station's frames reach the AP's wired
// link as one contiguous chain in admission order — the first-rooted
// chain first — all at the same instant.
func TestZeroBandwidthChainsStayContiguous(t *testing.T) {
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	medium := NewMedium(e)
	ar := netsim.NewRouter("ar", inet.Addr{Net: 10, Host: 1})
	ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, AirDelay: sim.Millisecond})
	topo.Connect(ar, ap, netsim.LinkConfig{})
	var got []airArrival
	ar.LocalDeliver = func(in *netsim.Iface, pkt *inet.Packet) bool {
		got = append(got, airArrival{e.Now(), pkt.ID})
		return true
	}
	var sts [2]*Station
	for k := range sts {
		sts[k] = NewStation(fmt.Sprintf("mh%d", k), medium, Fixed(float64(10*k)), StationConfig{AirDelay: sim.Millisecond})
		sts[k].Associate(ap)
	}
	e.At(5*sim.Millisecond, func() {
		for id := uint64(1); id <= 6; id++ {
			// Odd ids from the first station, even ids from the second.
			sts[(id+1)%2].Send(&inet.Packet{ID: id, Dst: ar.Addr(), Proto: inet.ProtoControl, Size: 500})
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	at := 6 * sim.Millisecond
	want := []airArrival{{at, 1}, {at, 3}, {at, 5}, {at, 2}, {at, 4}, {at, 6}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("uplink arrivals %v, want %v", got, want)
	}
}

// TestFusedAirHalvesAirEvents pins the event economy of the analytic
// radio: a downlink (or uplink) frame costs one scheduler event, its
// arrival — half of the two-event txDone-then-arrival chain it replaced.
func TestFusedAirHalvesAirEvents(t *testing.T) {
	const n = 100
	run := func(uplink bool) uint64 {
		e := sim.NewEngine()
		topo := netsim.NewTopology(e)
		medium := NewMedium(e)
		ar := netsim.NewRouter("ar", inet.Addr{Net: 10, Host: 1})
		ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
		topo.Connect(ar, ap, netsim.LinkConfig{})
		st := NewStation("mh", medium, Fixed(10), StationConfig{BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
		addr := inet.Addr{Net: 10, Host: 5}
		st.AddAddr(addr)
		st.Associate(ap)
		e.At(0, func() {
			for i := 0; i < n; i++ {
				if uplink {
					st.Send(&inet.Packet{Src: addr, Dst: ar.Addr(), Proto: inet.ProtoControl, Size: 160})
				} else {
					ap.transmitDown(&inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: 160})
				}
			}
		})
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return e.Processed()
	}
	// Downlink: the burst event plus one arrival per frame.
	if got := run(false); got != 1+n {
		t.Fatalf("downlink events = %d, want %d", got, 1+n)
	}
	// Uplink additionally crosses the wired hop: one delivery per frame.
	if got := run(true); got != 1+2*n {
		t.Fatalf("uplink events = %d, want %d", got, 1+2*n)
	}
}

// TestAirHopZeroAlloc pins the radio data plane allocation-free in both
// directions.
func TestAirHopZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	medium := NewMedium(e)
	ar := netsim.NewRouter("ar", inet.Addr{Net: 10, Host: 1})
	ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	link := topo.Connect(ar, ap, netsim.LinkConfig{BandwidthBPS: 100_000_000})
	ar.AddPrefixRoute(10, link.A())
	ar.LocalDeliver = func(in *netsim.Iface, pkt *inet.Packet) bool { return true }
	st := NewStation("mh", medium, Fixed(10), StationConfig{BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	addr := inet.Addr{Net: 10, Host: 5}
	st.AddAddr(addr)
	st.Associate(ap)

	down := &inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: 160}
	up := &inet.Packet{Src: addr, Dst: ar.Addr(), Proto: inet.ProtoControl, Size: 64}
	for i := 0; i < 64; i++ { // warm up rings, FIFOs, and the event free list
		ap.transmitDown(down)
		st.Send(up)
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		ap.transmitDown(down)
		e.RunAll() //nolint:errcheck // drained below
	}); allocs != 0 {
		t.Fatalf("downlink air hop allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		st.Send(up)
		e.RunAll() //nolint:errcheck // drained below
	}); allocs != 0 {
		t.Fatalf("uplink air hop allocates %.1f/op, want 0", allocs)
	}
	if err := e.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

// BenchmarkAirHop measures one downlink frame crossing the air: admission,
// serialization, arrival, delivery to the station.
func BenchmarkAirHop(b *testing.B) {
	e := sim.NewEngine()
	medium := NewMedium(e)
	ap := NewAccessPoint("ap", medium, APConfig{Pos: 0, Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond})
	st := NewStation("mh", medium, Fixed(10), StationConfig{})
	addr := inet.Addr{Net: 10, Host: 5}
	st.AddAddr(addr)
	st.Associate(ap)
	pkt := &inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: 160}
	for i := 0; i < 64; i++ {
		ap.transmitDown(pkt)
		if err := e.RunAll(); err != nil {
			b.Fatalf("RunAll: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap.transmitDown(pkt)
		e.RunAll() //nolint:errcheck // benchmark hot loop
	}
}

// BenchmarkBeaconScan sweeps the station population with a fixed
// in-coverage count (~23): with the position-bucket index the per-beacon
// cost must stay flat instead of scaling with the population.
func BenchmarkBeaconScan(b *testing.B) {
	for _, n := range []int{100, 400, 1000, 4000} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			e := sim.NewEngine()
			medium := NewMedium(e)
			ap := NewAccessPoint("ap", medium, APConfig{Pos: float64(n) * 5, Radius: 112})
			for i := 0; i < n; i++ {
				NewStation(fmt.Sprintf("s%d", i), medium, Fixed(float64(i)*10), StationConfig{})
			}
			ap.adv = Advertisement{AP: ap, Net: 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ap.beacon()
			}
		})
	}
}
