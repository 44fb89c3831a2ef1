package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wireless"
)

// TestHeardAPsLastHeardWins pins the heard-AP list that network-initiated
// handovers resolve their target against: one entry per name, the last
// access point heard under a name wins, and repeated beacons add nothing.
func TestHeardAPsLastHeardWins(t *testing.T) {
	medium := wireless.NewMedium(sim.NewEngine())
	ap := func(name string) *wireless.AccessPoint {
		return wireless.NewAccessPoint(name, medium, wireless.APConfig{Radius: 1})
	}
	a, b, a2 := ap("a"), ap("b"), ap("a")
	var mh MobileHost
	for _, heard := range []*wireless.AccessPoint{a, b, a, b, a} {
		mh.noteHeard(heard)
	}
	if len(mh.heardAPs) != 2 || mh.heardAP("a") != a || mh.heardAP("b") != b {
		t.Fatalf("heard %v, want a and b once each", mh.heardAPs)
	}
	mh.noteHeard(a2)
	if len(mh.heardAPs) != 2 || mh.heardAP("a") != a2 {
		t.Fatal("a second AP named a did not replace the first")
	}
	mh.noteHeard(a)
	if mh.heardAP("a") != a {
		t.Fatal("hearing the first AP named a again did not make it current")
	}
	if mh.heardAP("c") != nil {
		t.Fatal("an AP never heard was found")
	}
}
