package scenario

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestParamsValidate checks the City and Metro parameter checks against a
// table: zero values select defaults and pass; a negative count or time,
// a host count that is not positive, an unknown scheme and a pool/α pair
// core.ARConfig rejects fail; and RunCity and RunMetro panic with the
// error before they build anything.
func TestParamsValidate(t *testing.T) {
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
