package scenario

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// smallMetro keeps the sweep cheap: one cell, enough hosts and a tight
// enough stagger window to oversubscribe both variants' pools.
func smallMetro() MetroParams {
	return MetroParams{
		Hosts:         []int{40},
		PoolSize:      48,
		BufferRequest: 12,
		StaggerWindow: 6 * sim.Second, // ≈13 overlapping handoffs versus capacity 4 (NAR-only) / 8 (dual)
	}
}

// TestMetroDualDoublesCapacity pins the headline claim: at equal total
// pool space and equal per-handoff demand, splitting the demand across
// PAR and NAR sustains about twice the simultaneous handoffs.
func TestMetroDualDoublesCapacity(t *testing.T) {
	res := RunMetro(smallMetro())
	if len(res.Variants) != 3 {
		t.Fatalf("got %d variants, want 3", len(res.Variants))
	}
	for _, v := range res.Variants {
		c := v.Cells[0]
		if c.Handoffs < 35 {
			t.Errorf("%s: only %d/40 handoffs completed", v.Slug, c.Handoffs)
		}
		if c.SessionsLeft != 0 {
			t.Errorf("%s: %d sessions leaked", v.Slug, c.SessionsLeft)
		}
		if v.Scheme == core.SchemeSafetyNet {
			// The bicast variant never touches the pool — exhaustion stays
			// flat at zero no matter how oversubscribed the cell is — and
			// pays in duplicate backhaul traffic instead.
			if c.Grants != 0 || c.Refusals != 0 {
				t.Errorf("sfn: pool touched (grants=%d refusals=%d), want untouched", c.Grants, c.Refusals)
			}
			if c.DupPackets == 0 || c.OverheadRatio() <= 0 {
				t.Errorf("sfn: no bandwidth overhead recorded (dups=%d)", c.DupPackets)
			}
			if c.Lost != [3]uint64{} {
				t.Errorf("sfn: lost packets %v, want none", c.Lost)
			}
			continue
		}
		if c.Refusals == 0 {
			t.Errorf("%s: pool never exhausted — the cell is not oversubscribed", v.Slug)
		}
		// Saturated pools must peak at their session capacity.
		capacity := res.Params.PoolSize / v.Request
		if c.PeakNAR != capacity {
			t.Errorf("%s: peak NAR sessions %d, want pool capacity %d", v.Slug, c.PeakNAR, capacity)
		}
	}
	if ratio := res.CapacityRatio(); ratio < 1.8 {
		t.Fatalf("capacity ratio %.2f, want ≈2 (dual should double concurrent handoffs)", ratio)
	}
}

// TestMetroDeterminism re-runs the sweep and requires identical results.
func TestMetroDeterminism(t *testing.T) {
	a := RunMetro(smallMetro())
	b := RunMetro(smallMetro())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("metro sweep is not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMetroRenderAndCSV sanity-checks the two output formats.
func TestMetroRenderAndCSV(t *testing.T) {
	res := RunMetro(smallMetro())
	out := res.Render()
	for _, want := range []string{"NAR only", "dual buffering", "safetynet bicast", "overhead", "capacity ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3 { // header + one cell per variant
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "variant,hosts,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

// BenchmarkMetroCell measures one small oversubscribed metro cell end to
// end — 40 hosts handing off against both variants' pools.
func BenchmarkMetroCell(b *testing.B) {
	p := smallMetro()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunMetro(p)
	}
}

// TestMetroSpecMetrics runs a small metro sweep once and checks the
// metric keys the JSON artifact schema promises.
func TestMetroSpecMetrics(t *testing.T) {
	p := smallMetro()
	p.Seed = 1
	m := RunMetro(p).Metrics()
	for _, key := range []string{
		"capacity_ratio",
		"peak_nar_nar_n40", "peak_nar_dual_n40",
		"refusal_rate_nar_n40", "refusal_rate_dual_n40",
		"lost_rt_nar_n40", "lost_hp_dual_n40", "lost_be_dual_n40",
		"handoffs_dual_n40", "sessions_left_nar_n40",
		"handoffs_sfn_n40", "refusal_rate_sfn_n40",
		"dup_packets_sfn_n40", "overhead_ratio_sfn_n40",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %q missing (have %d metrics)", key, len(m))
		}
	}
	if m["capacity_ratio"] < 1.8 {
		t.Errorf("capacity_ratio metric %.2f, want ≈2", m["capacity_ratio"])
	}
	if m["sessions_left_nar_n40"] != 0 || m["sessions_left_dual_n40"] != 0 {
		t.Errorf("sessions leaked: nar=%v dual=%v",
			m["sessions_left_nar_n40"], m["sessions_left_dual_n40"])
	}
}

// TestMetroPacketPoolBoundedByInFlight pins the packet lifecycle of a
// metro cell: every packet the data path touches — application packets,
// the anchor's tunnel wrappers, SafetyNet copies, the PAR→NAR drain
// tunnels — is taken from the topology's pool and comes back to it. So
// the pool's heap footprint (Fresh) follows the packets in flight, which
// a fixed per-host stagger holds constant (≈20 concurrent flows), and not
// the packets sent, which grow fourfold from 50 to 200 hosts. A heap
// allocated wrapper released into the pool shows up as Puts > Gets and
// as a pool that grows with the run.
func TestMetroPacketPoolBoundedByInFlight(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeDual, core.SchemeSafetyNet} {
		t.Run(scheme.String(), func(t *testing.T) {
			var fresh [2]uint64
			for i, hosts := range []int{50, 200} {
				tb := runMetroTestbed(MetroParams{
					PoolSize:      240,
					StaggerWindow: sim.Time(hosts) * 200 * sim.Millisecond,
					Seed:          1,
				}, scheme, 12, hosts)
				st := tb.Topo.PoolStats()
				sent := tb.Recorder.TotalSent()
				if st.Puts != st.Gets {
					t.Errorf("%d hosts: %d packets handed out, %d recycled: the pool leaks or is fed from the heap", hosts, st.Gets, st.Puts)
				}
				if st.Fresh*50 > sent {
					t.Errorf("%d hosts: pool allocated %d packets for %d sent", hosts, st.Fresh, sent)
				}
				fresh[i] = st.Fresh
			}
			if fresh[1] > fresh[0]+fresh[0]/4 {
				t.Errorf("pool allocations grew with packets sent: %d at 50 hosts, %d at 200", fresh[0], fresh[1])
			}
		})
	}
}

// TestMetroPoolsStayBalanced runs a 200-host cell per variant at the
// default stagger, where tunnels to a host's old care-of address reach
// the PAR or NAR after its handoff session ended and find no route. The
// routers hand those chains back to the pool, so after the drain every
// packet handed out has come back: Σ(Gets − Puts) = 0.
func TestMetroPoolsStayBalanced(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeFHOriginal, core.SchemeDual, core.SchemeSafetyNet} {
		t.Run(scheme.String(), func(t *testing.T) {
			tb := runMetroTestbed(MetroParams{PoolSize: 240, Seed: 1}, scheme, 12, 200)
			noRoute := tb.PAR.Router().NoRouteDrops() + tb.NAR.Router().NoRouteDrops()
			if noRoute == 0 {
				t.Fatal("no packet met a missing route, so the check below proves nothing")
			}
			st := tb.Topo.PoolStats()
			if st.Gets != st.Puts {
				t.Fatalf("%d packets handed out, %d recycled after the drain (%d no-route drops)",
					st.Gets, st.Puts, noRoute)
			}
		})
	}
}

// TestMetroNARCellFullPrecision pins the seed-1 NAR-only cell of RunMetro
// at 1000 hosts. The metro render rounds delays to three decimals of a
// millisecond, so a change that moves deliveries by a few nanoseconds (an
// event-ordering change, say) leaves every published table alone; this
// guard sees it. The mean is an average of per-flow means, so it is
// rounded to the picosecond: coarse enough to forgive a reordered
// floating-point sum, fine enough to see one flow's mean move by 1 ns
// (rounding to the nanosecond would hide a 0.2 ns shift of the average).
func TestMetroNARCellFullPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 1000-host metro cells")
	}
	res := RunMetro(MetroParams{Hosts: []int{1000}, Seed: 1})
	v := res.Variants[0]
	if v.Slug != "nar" {
		t.Fatalf("first variant is %q, want nar", v.Slug)
	}
	ps := func(ms float64) float64 { return math.Round(ms*1e9) / 1e9 }
	type outcome struct {
		MeanDelayMs, MaxDelayMs float64
		Lost                    [3]uint64
		Grants, Refusals        uint64
	}
	cell := v.Cells[0]
	got := outcome{ps(cell.MeanDelayMs), ps(cell.MaxDelayMs), cell.Lost, cell.Grants, cell.Refusals}
	want := outcome{8.674248818, 228.709106, [3]uint64{1890, 1856, 1865}, 440, 560}
	if got != want {
		t.Fatalf("nar cell at N=1000, seed 1:\n got %+v\nwant %+v", got, want)
	}
}
