package wireless

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLogDistanceKnownValues(t *testing.T) {
	m := DefaultSignal() // 20 dBm − 40 dB @1 m, exponent 3
	tests := []struct {
		d    float64
		want float64
	}{
		{1, -20},
		{10, -50}, // +30 dB per decade
		{100, -80},
		{0.5, -20}, // clamped to the reference distance
	}
	for _, tt := range tests {
		if got := m.RSSIdBm(tt.d); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("RSSIdBm(%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestSensitivityMatchesEdge(t *testing.T) {
	m := DefaultSignal()
	if got, want := m.SensitivitydBm(112), m.RSSIdBm(112); got != want {
		t.Fatalf("SensitivitydBm = %v, want %v", got, want)
	}
}

func TestZeroRefDistanceDefaults(t *testing.T) {
	m := LogDistance{TxPowerdBm: 20, RefLossdB: 40, Exponent: 3}
	if got := m.RSSIdBm(1); got != -20 {
		t.Fatalf("RSSIdBm(1) with zero ref = %v, want -20", got)
	}
}

func TestAPAndStationRSSI(t *testing.T) {
	e := sim.NewEngine()
	medium := NewMedium(e)
	ap := NewAccessPoint("ap", medium, APConfig{Pos: 100, Radius: 112})
	st := NewStation("mh", medium, Fixed(110), StationConfig{})
	want := DefaultSignal().RSSIdBm(10)
	if got := ap.RSSI(110); got != want {
		t.Fatalf("ap.RSSI = %v, want %v", got, want)
	}
	if got := st.RSSI(ap, 0); got != want {
		t.Fatalf("station.RSSI = %v, want %v", got, want)
	}
}

// TestRSSIZeroAlloc pins the default model to the AP: a station hears
// every beacon through RSSI, so an AP without its own Signal must not box
// DefaultSignal on each call.
func TestRSSIZeroAlloc(t *testing.T) {
	ap := NewAccessPoint("ap", NewMedium(sim.NewEngine()), APConfig{Pos: 100, Radius: 112})
	var sum float64
	allocs := testing.AllocsPerRun(100, func() { sum += ap.RSSI(110) })
	if allocs != 0 {
		t.Fatalf("RSSI under the default model allocates %.1f times per call, want 0", allocs)
	}
	if want := 101 * DefaultSignal().RSSIdBm(10); sum != want {
		t.Fatalf("RSSI summed to %v over 101 calls, want %v", sum, want)
	}
}

func TestCustomSignalModel(t *testing.T) {
	e := sim.NewEngine()
	medium := NewMedium(e)
	ap := NewAccessPoint("ap", medium, APConfig{
		Pos: 0, Radius: 112,
		Signal: LogDistance{TxPowerdBm: 30, RefLossdB: 40, Exponent: 2, RefDistance: 1},
	})
	if got := ap.RSSI(10); got != 30-40-20 {
		t.Fatalf("custom model RSSI = %v, want -30", got)
	}
}

// Property: received power is non-increasing with distance, for any
// positive exponent.
func TestPropertyRSSIMonotone(t *testing.T) {
	f := func(expRaw uint8, d1Raw, d2Raw uint16) bool {
		m := LogDistance{
			TxPowerdBm:  20,
			RefLossdB:   40,
			Exponent:    float64(expRaw%5) + 0.5,
			RefDistance: 1,
		}
		d1 := float64(d1Raw%2000) + 1
		d2 := float64(d2Raw%2000) + 1
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return m.RSSIdBm(d1) >= m.RSSIdBm(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
