package handover_test

import (
	"fmt"
	"time"

	"repro/handover"
)

// The smallest complete use of the library: one host, one handoff, three
// service classes.
func Example() {
	sim := handover.New(handover.Config{
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		Alpha:                2,
		BufferRequestPackets: 20,
		Seed:                 1,
	})
	host := sim.AddMobileHost(handover.LinearPath(50, 10),
		handover.AudioFlow(handover.RealTime),
		handover.AudioFlow(handover.HighPriority),
		handover.AudioFlow(handover.BestEffort))
	if err := sim.Run(12 * time.Second); err != nil {
		panic(err)
	}
	rec := host.Handoffs()[0]
	fmt.Printf("handoffs: %d, blackout: %v, lost: %d\n",
		len(host.Handoffs()), rec.Attached-rec.Detached, sim.Report().TotalLost())
	// Output:
	// handoffs: 1, blackout: 200ms, lost: 0
}

// Comparing the paper's schemes on the same overloaded scenario.
func Example_schemes() {
	for _, scheme := range []struct {
		name    string
		scheme  handover.Scheme
		request int
	}{
		{"no-buffer", handover.NoBuffer, 0},
		{"original ", handover.OriginalFH, 12},
		{"dual     ", handover.Dual, 6},
	} {
		sim := handover.New(handover.Config{
			Scheme:               scheme.scheme,
			RouterBufferPackets:  50,
			BufferRequestPackets: scheme.request,
			Seed:                 1,
		})
		for i := 0; i < 8; i++ {
			sim.AddMobileHost(handover.LinearPath(50, 10),
				handover.AudioFlow(handover.Unspecified))
		}
		if err := sim.Run(12 * time.Second); err != nil {
			panic(err)
		}
		lost := sim.Report().TotalLost()
		fmt.Printf("%s lossless=%v\n", scheme.name, lost == 0)
	}
	// Output:
	// no-buffer lossless=false
	// original  lossless=false
	// dual      lossless=true
}

// TCP across a link-layer handoff, with and without the paper's buffering.
func ExampleNewWLAN() {
	for _, buffered := range []bool{false, true} {
		sim := handover.NewWLAN(handover.WLANConfig{Buffered: buffered, Seed: 1})
		if err := sim.Run(20 * time.Second); err != nil {
			panic(err)
		}
		rep := sim.Report()
		fmt.Printf("buffered=%v timeouts=%d\n", buffered, rep.Timeouts)
	}
	// Output:
	// buffered=false timeouts=1
	// buffered=true timeouts=0
}

// Walking a corridor of four access routers: the roles re-cast at every
// boundary. The host walks from 50 m into the first cell to 60 m past the
// last access point (3 × 212 m + 10 m at 10 m/s).
func ExampleNew_corridor() {
	sim := handover.New(handover.Config{
		Routers:              4,
		Scheme:               handover.Enhanced,
		RouterBufferPackets:  40,
		Alpha:                2,
		BufferRequestPackets: 20,
		Seed:                 1,
	})
	sim.AddMobileHost(handover.LinearPath(50, 10), handover.AudioFlow(handover.HighPriority))
	if err := sim.Run(64600 * time.Millisecond); err != nil {
		panic(err)
	}
	rep := sim.Report()
	fmt.Printf("handoffs: %d, lost: %d\n", len(rep.Handoffs), rep.TotalLost())
	// Output:
	// handoffs: 3, lost: 0
}
