package wireless

import (
	"math"

	"repro/internal/sim"
)

// SignalModel maps transmitter–receiver distance to received power. The
// handover trigger (the thesis' L2-ST) is a signal-strength comparison in
// real stacks; this makes that comparison explicit and tunable.
type SignalModel interface {
	// RSSIdBm returns the received power at the given distance in meters.
	RSSIdBm(distance float64) float64
}

// LogDistance is the standard log-distance path-loss model:
//
//	rssi(d) = TxPowerdBm − RefLossdB − 10·Exponent·log10(max(d, RefDistance)/RefDistance)
type LogDistance struct {
	// TxPowerdBm is the transmit power (≈20 dBm for 802.11b).
	TxPowerdBm float64
	// RefLossdB is the loss at the reference distance (≈40 dB at 1 m for
	// 2.4 GHz).
	RefLossdB float64
	// Exponent is the path-loss exponent (2 free space, 3–4 urban).
	Exponent float64
	// RefDistance is the reference distance in meters.
	RefDistance float64
}

// DefaultSignal returns an 802.11b-flavoured model: 20 dBm transmit,
// 40 dB loss at 1 m, exponent 3.
func DefaultSignal() LogDistance {
	return LogDistance{TxPowerdBm: 20, RefLossdB: 40, Exponent: 3, RefDistance: 1}
}

// RSSIdBm implements SignalModel.
func (l LogDistance) RSSIdBm(distance float64) float64 {
	ref := l.RefDistance
	if ref <= 0 {
		ref = 1
	}
	if distance < ref {
		distance = ref
	}
	return l.TxPowerdBm - l.RefLossdB - 10*l.Exponent*math.Log10(distance/ref)
}

// SensitivitydBm returns the received power at the model's edge-of-coverage
// distance — the receive sensitivity a radius implies under this model.
func (l LogDistance) SensitivitydBm(radius float64) float64 {
	return l.RSSIdBm(radius)
}

// RSSI returns the received power a station at pos sees from this access
// point, under the AP's signal model (DefaultSignal when unset).
func (ap *AccessPoint) RSSI(pos float64) float64 {
	return ap.cfg.Signal.RSSIdBm(math.Abs(pos - ap.cfg.Pos))
}

// RSSI returns the received power the station sees from the given access
// point at the given instant.
func (s *Station) RSSI(ap *AccessPoint, at sim.Time) float64 {
	return ap.RSSI(s.Pos(at))
}
