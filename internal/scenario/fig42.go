package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// Fig42Params configures the buffer-utilization experiment (Figure 4.2):
// N mobile hosts, each with one 64 kb/s audio flow, hand off
// simultaneously; the total packet drops are compared across buffering
// placements.
type Fig42Params struct {
	// MaxHosts sweeps 1..MaxHosts (20 in the thesis).
	MaxHosts int
	// PoolSize is each router's buffer pool (50 in the thesis' example).
	PoolSize int
	// BufferRequest is each host's per-handoff buffering need. Under the
	// dual scheme the request is split across the two routers (half
	// each), which is what doubles the serviceable host count. The
	// default of 12 covers one blackout's demand (~10 packets) with
	// margin.
	BufferRequest int
	// Seed drives beacon phases.
	Seed int64
	// Engine optionally reuses a simulation engine across the sweep's
	// runs (see Params.Engine).
	Engine *sim.Engine
}

func (p *Fig42Params) applyDefaults() {
	if p.MaxHosts == 0 {
		p.MaxHosts = 20
	}
	if p.PoolSize == 0 {
		p.PoolSize = 50
	}
	if p.BufferRequest == 0 {
		p.BufferRequest = 12
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Fig42Schemes lists the four compared buffering placements, in the
// thesis' legend order.
var Fig42Schemes = []struct {
	Label  string
	Scheme core.Scheme
}{
	{"NAR", core.SchemeFHOriginal},
	{"PAR", core.SchemePAROnly},
	{"DUAL", core.SchemeDual},
	{"FH", core.SchemeFHNoBuffer},
}

// Fig42Result holds drops per scheme per host count.
type Fig42Result struct {
	Params Fig42Params
	// Drops[label][n-1] is the total packet drop count with n hosts.
	Drops map[string][]uint64
}

// RunFig42 executes the sweep.
func RunFig42(p Fig42Params) Fig42Result {
	p.applyDefaults()
	res := Fig42Result{
		Params: p,
		Drops:  make(map[string][]uint64, len(Fig42Schemes)),
	}
	for _, sc := range Fig42Schemes {
		series := make([]uint64, 0, p.MaxHosts)
		for n := 1; n <= p.MaxHosts; n++ {
			series = append(series, runFig42Once(p, sc.Scheme, n))
		}
		res.Drops[sc.Label] = series
	}
	return res
}

// runFig42Once runs one simultaneous-handoff scenario and returns total
// lost packets.
func runFig42Once(p Fig42Params, scheme core.Scheme, hosts int) uint64 {
	request := p.BufferRequest
	if scheme == core.SchemeDual || scheme == core.SchemeEnhanced {
		// Dual buffering splits the demand across the two routers.
		request = (p.BufferRequest + 1) / 2
	}
	tb := NewTestbed(Params{
		Scheme:        scheme,
		PoolSize:      p.PoolSize,
		BufferRequest: request,
		Seed:          p.Seed,
		Engine:        p.Engine,
	})
	for i := 0; i < hosts; i++ {
		tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
			AudioFlow(inet.ClassUnspecified),
		})
	}
	if err := tb.RunTraffic(12*sim.Second, 14*sim.Second); err != nil {
		panic(fmt.Sprintf("fig4.2: %v", err))
	}
	return tb.Recorder.TotalLost()
}

// MaxLossFree returns the largest host count a scheme served without
// dropping anything.
func (r Fig42Result) MaxLossFree(label string) int {
	best := 0
	for i, d := range r.Drops[label] {
		if d == 0 {
			best = i + 1
		} else {
			break
		}
	}
	return best
}

// Metrics reports the loss-free capacities per placement and the
// unbuffered scheme's drops at the largest host count.
func (r Fig42Result) Metrics() runner.Metrics {
	fh := r.Drops["FH"]
	return runner.Metrics{
		"capacity_nar":    float64(r.MaxLossFree("NAR")),
		"capacity_par":    float64(r.MaxLossFree("PAR")),
		"capacity_dual":   float64(r.MaxLossFree("DUAL")),
		"drops_fh_at_max": float64(fh[len(fh)-1]),
	}
}

// Render prints the figure as a text table (hosts × schemes).
func (r Fig42Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4.2 — buffer utilization: total packet drops vs simultaneous handoffs\n")
	fmt.Fprintf(&b, "(pool %d packets per AR, %d packets requested per host)\n\n",
		r.Params.PoolSize, r.Params.BufferRequest)
	fmt.Fprintf(&b, "%-6s", "hosts")
	for _, sc := range Fig42Schemes {
		fmt.Fprintf(&b, "%8s", sc.Label)
	}
	b.WriteByte('\n')
	for n := 1; n <= r.Params.MaxHosts; n++ {
		fmt.Fprintf(&b, "%-6d", n)
		for _, sc := range Fig42Schemes {
			fmt.Fprintf(&b, "%8d", r.Drops[sc.Label][n-1])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nloss-free capacity: NAR=%d PAR=%d DUAL=%d FH=%d\n",
		r.MaxLossFree("NAR"), r.MaxLossFree("PAR"), r.MaxLossFree("DUAL"), r.MaxLossFree("FH"))
	return b.String()
}
