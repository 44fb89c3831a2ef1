package scenario

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestParamsValidate checks the testbed, City and Metro parameter checks
// against a table: zero values select defaults and pass; a row that is
// not 2 to NetMAP−NetPAR routers long, a negative count or time, a host
// count that is not positive, an unknown scheme, a loss rate outside [0,1]
// and a pool/α pair core.ARConfig rejects fail; and NewTestbed, RunCity
// and RunMetro panic with the error before they build anything.
func TestParamsValidate(t *testing.T) {
	testbeds := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"zero", Params{}, true},
		{"explicit", Params{Routers: int(NetMAP - NetPAR), Scheme: core.SchemeDual, PoolSize: 40, Alpha: 4,
			ARLinkDelay: 1, L2HandoffDelay: 1, RAInterval: 1, DrainInterval: 1, HomeAgentDelay: 1, ControlLossRate: 1}, true},
		{"one router", Params{Routers: 1}, false},
		{"negative routers", Params{Routers: -2}, false},
		{"row claims the MAP's net", Params{Routers: int(NetMAP-NetPAR) + 1}, false},
		{"negative link delay", Params{ARLinkDelay: -1}, false},
		{"negative blackout", Params{L2HandoffDelay: -1}, false},
		{"negative beacon period", Params{RAInterval: -1}, false},
		{"negative drain interval", Params{DrainInterval: -1}, false},
		{"negative home-agent delay", Params{HomeAgentDelay: -1}, false},
		{"unknown scheme", Params{Scheme: 99}, false},
		{"loss rate above one", Params{ControlLossRate: 1.5}, false},
		{"negative loss rate", Params{ControlLossRate: -0.1}, false},
		{"negative pool", Params{PoolSize: -1}, false},
		{"alpha fills the pool", Params{PoolSize: 2, Alpha: 2}, false},
	}
	for _, tc := range testbeds {
		t.Run("testbed/"+tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%+v) = %v, want ok %v", tc.p, err, tc.ok)
			}
			if !tc.ok {
				wantPanic(t, err, func() { NewTestbed(tc.p) })
			}
		})
	}
	cities := []struct {
		name string
		p    CityParams
		ok   bool
	}{
		{"zero", CityParams{}, true},
		{"explicit", CityParams{Domains: 2, HostsPerDomain: 5, MAPs: 1, Shards: 2, Workers: 1,
			Scheme: core.SchemeDual, PoolSize: 40, BufferRequest: 6, Alpha: 4, StaggerWindow: 1}, true},
		{"negative domains", CityParams{Domains: -1}, false},
		{"negative hosts", CityParams{HostsPerDomain: -1}, false},
		{"negative MAPs", CityParams{MAPs: -1}, false},
		{"negative shards", CityParams{Shards: -1}, false},
		{"negative workers", CityParams{Workers: -1}, false},
		{"negative pool", CityParams{PoolSize: -1}, false},
		{"negative request", CityParams{BufferRequest: -1}, false},
		{"negative window", CityParams{StaggerWindow: -1}, false},
		{"unknown scheme", CityParams{Scheme: 99}, false},
		{"negative alpha", CityParams{Alpha: -1}, false},
		{"alpha fills the pool", CityParams{PoolSize: 2}, false},
		{"alpha past the default pool", CityParams{Alpha: 240}, false},
	}
	for _, tc := range cities {
		t.Run("city/"+tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%+v) = %v, want ok %v", tc.p, err, tc.ok)
			}
			if !tc.ok {
				wantPanic(t, err, func() { RunCity(tc.p) })
			}
		})
	}
	metros := []struct {
		name string
		p    MetroParams
		ok   bool
	}{
		{"zero", MetroParams{}, true},
		{"explicit", MetroParams{Hosts: []int{1, 20}, PoolSize: 3, BufferRequest: 1, StaggerWindow: 1}, true},
		{"empty sweep", MetroParams{Hosts: []int{}}, true},
		{"zero hosts", MetroParams{Hosts: []int{10, 0}}, false},
		{"negative hosts", MetroParams{Hosts: []int{-5}}, false},
		{"negative pool", MetroParams{PoolSize: -1}, false},
		{"negative request", MetroParams{BufferRequest: -1}, false},
		{"negative window", MetroParams{StaggerWindow: -1}, false},
		{"alpha fills the pool", MetroParams{PoolSize: metroAlpha}, false},
	}
	for _, tc := range metros {
		t.Run("metro/"+tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%+v) = %v, want ok %v", tc.p, err, tc.ok)
			}
			if !tc.ok {
				wantPanic(t, err, func() { RunMetro(tc.p) })
			}
		})
	}
}

// wantPanic runs run and fails unless it panics with err.
func wantPanic(t *testing.T, err error, run func()) {
	t.Helper()
	defer func() {
		if got := recover(); fmt.Sprint(got) != err.Error() {
			t.Fatalf("panic %v, want %v", got, err)
		}
	}()
	run()
}
