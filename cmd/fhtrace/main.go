// Command fhtrace runs a single fast-handover and prints a timestamped
// event trace: every control message, link event, buffer drop, and the
// final accounting — a teaching/debugging view of the protocol.
//
// Usage:
//
//	fhtrace                      # enhanced scheme, three-class traffic
//	fhtrace -scheme original -pool 10
//	fhtrace -ns2                 # ns-2-style one-line-per-event format
//	fhtrace -deliveries          # include every packet delivery
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wireless"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fhtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fhtrace", flag.ContinueOnError)
	schemeName := fs.String("scheme", "enhanced", "buffering scheme: none, original, par, dual, enhanced")
	pool := fs.Int("pool", 40, "router buffer pool, packets")
	request := fs.Int("request", 20, "per-handoff buffer request, packets")
	ns2 := fs.Bool("ns2", false, "emit ns-2-style trace lines")
	deliveries := fs.Bool("deliveries", false, "include every packet delivery in the trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}

	tb := scenario.NewTestbed(scenario.Params{
		Scheme:        scheme,
		PoolSize:      *pool,
		Alpha:         2,
		BufferRequest: *request,
	})
	unit := tb.AddMobileHost(wireless.Linear{Start: 50, Speed: scenario.MHSpeed}, []scenario.FlowSpec{
		scenario.AudioFlow(inet.ClassRealTime),
		scenario.AudioFlow(inet.ClassHighPriority),
		scenario.AudioFlow(inet.ClassBestEffort),
	})
	log := trace.NewLog(0)
	tb.AttachTrace(log)

	if err := tb.RunTraffic(12*sim.Second, 14*sim.Second); err != nil {
		return err
	}

	// Deliveries dominate the log; filter them out unless requested.
	filtered := trace.NewLog(0)
	for _, ev := range log.Events() {
		if ev.Kind == trace.KindDeliver && !*deliveries {
			continue
		}
		filtered.Emit(ev)
	}

	if *ns2 {
		if err := trace.NewNS2Writer(os.Stdout).WriteLog(filtered); err != nil {
			return err
		}
	} else {
		fmt.Printf("Handover trace (%s, pool=%d, request=%d)\n\n", scheme, *pool, *request)
		fmt.Print(filtered.Render())
	}

	fmt.Printf("\nper-flow accounting:\n")
	for _, id := range unit.Flows {
		f := tb.Recorder.Flow(id)
		fmt.Printf("  %-14s sent=%d delivered=%d lost=%d maxDelay=%.0fms\n",
			f.Class, f.Sent, f.Delivered, f.Lost(), f.MaxDelay().Milliseconds())
	}
	return nil
}

func parseScheme(name string) (core.Scheme, error) {
	switch name {
	case "none", "nobuffer":
		return core.SchemeFHNoBuffer, nil
	case "original", "nar":
		return core.SchemeFHOriginal, nil
	case "par":
		return core.SchemePAROnly, nil
	case "dual":
		return core.SchemeDual, nil
	case "enhanced", "proposed":
		return core.SchemeEnhanced, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}
