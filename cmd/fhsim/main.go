// Command fhsim runs one fast-handover scenario on the reference topology
// and prints per-flow and per-handoff results.
//
// Usage examples:
//
//	fhsim                                    # one host, enhanced scheme
//	fhsim -scheme original -pool 40 -hosts 3
//	fhsim -classes rt,hp,be -interval 10ms -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/handover"
	"repro/internal/prof"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fhsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("fhsim", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "enhanced", "buffering scheme: none, original, par, dual, enhanced")
		pool       = fs.Int("pool", 40, "router buffer pool, packets")
		alpha      = fs.Int("alpha", 2, "best-effort admission threshold α")
		request    = fs.Int("request", 20, "per-handoff buffer request, packets")
		hosts      = fs.Int("hosts", 1, "number of mobile hosts")
		classes    = fs.String("classes", "rt,hp,be", "comma-separated flow classes per host: rt, hp, be")
		interval   = fs.Duration("interval", 20*time.Millisecond, "CBR packet interval")
		size       = fs.Int("size", 160, "CBR packet size, bytes")
		arDelay    = fs.Duration("ardelay", 2*time.Millisecond, "PAR–NAR link delay")
		l2Delay    = fs.Duration("l2delay", 200*time.Millisecond, "link-layer handoff blackout")
		duration   = fs.Duration("duration", 12*time.Second, "simulated duration")
		seed       = fs.Int64("seed", 1, "random seed")
		asJSON     = fs.Bool("json", false, "emit JSON instead of a table")
		partial    = fs.Bool("partial", false, "routers grant whatever buffer space remains (precise allocation)")
		authKey    = fs.String("auth", "", "shared key: authenticate all handover signalling")
		plainMIP   = fs.Bool("plainmip", false, "plain Mobile IP baseline instead of fast handover")
		haDelay    = fs.Duration("hadelay", 0, "anchor hosts at a home agent this far (one-way) behind the MAP")
		hysteresis = fs.Float64("hysteresis", 0, "signal-strength margin (dB) for the handover trigger")
		loss       = fs.Float64("loss", 0, "control-plane loss probability on the access links [0,1]")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		traceOut   = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		return err
	}
	defer stopProfiles() //nolint:errcheck // profile teardown; run result takes precedence

	scheme, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}
	switch {
	case *hosts < 1:
		return fmt.Errorf("-hosts %d: need at least one host", *hosts)
	case *interval <= 0:
		return fmt.Errorf("-interval %v: must be positive", *interval)
	case *size <= 0:
		return fmt.Errorf("-size %d: must be positive", *size)
	case *duration <= 0:
		return fmt.Errorf("-duration %v: must be positive", *duration)
	case *l2Delay <= 0:
		return fmt.Errorf("-l2delay %v: must be positive (zero would select the default)", *l2Delay)
	case *arDelay <= 0:
		return fmt.Errorf("-ardelay %v: must be positive (zero would select the default)", *arDelay)
	}
	flows, err := parseClasses(*classes, *size, *interval)
	if err != nil {
		return err
	}

	var key []byte
	if *authKey != "" {
		key = []byte(*authKey)
	}
	cfg := handover.Config{
		Scheme:               scheme,
		RouterBufferPackets:  *pool,
		Alpha:                *alpha,
		BufferRequestPackets: *request,
		ARLinkDelay:          *arDelay,
		L2HandoffDelay:       *l2Delay,
		PartialGrants:        *partial,
		AuthKey:              key,
		PlainMobileIP:        *plainMIP,
		HomeAgentDelay:       *haDelay,
		HysteresisDB:         *hysteresis,
		ControlLossRate:      *loss,
		Seed:                 *seed,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	sim := handover.New(cfg)
	for i := 0; i < *hosts; i++ {
		sim.AddMobileHost(handover.LinearPath(50, 10), flows...)
	}
	if err := sim.Run(*duration); err != nil {
		return err
	}
	report := sim.Report()

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	printReport(out, report)
	return nil
}

func parseScheme(name string) (handover.Scheme, error) {
	switch strings.ToLower(name) {
	case "none", "nobuffer":
		return handover.NoBuffer, nil
	case "original", "nar":
		return handover.OriginalFH, nil
	case "par":
		return handover.PAROnly, nil
	case "dual":
		return handover.Dual, nil
	case "enhanced", "proposed":
		return handover.Enhanced, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}

func parseClasses(spec string, size int, interval time.Duration) ([]handover.Flow, error) {
	var flows []handover.Flow
	for _, c := range strings.Split(spec, ",") {
		var class handover.Class
		switch strings.TrimSpace(strings.ToLower(c)) {
		case "rt", "realtime":
			class = handover.RealTime
		case "hp", "high":
			class = handover.HighPriority
		case "be", "besteffort":
			class = handover.BestEffort
		case "", "none":
			class = handover.Unspecified
		default:
			return nil, fmt.Errorf("unknown class %q", c)
		}
		flows = append(flows, handover.Flow{Class: class, PacketBytes: size, Interval: interval})
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("no flows specified")
	}
	return flows, nil
}

func printReport(out *os.File, report handover.Report) {
	fmt.Fprintf(out, "flows:\n")
	fmt.Fprintf(out, "  %-5s%-6s%-15s%10s%10s%8s%12s%12s\n",
		"host", "flow", "class", "sent", "delivered", "lost", "max delay", "mean delay")
	for _, f := range report.Flows {
		fmt.Fprintf(out, "  %-5d%-6d%-15s%10d%10d%8d%12s%12s\n",
			f.Host, f.Index, f.Class, f.Sent, f.Delivered, f.Lost,
			f.MaxDelay.Round(time.Millisecond), f.MeanDelay.Round(time.Millisecond))
	}
	fmt.Fprintf(out, "\nhandoffs:\n")
	for _, h := range report.Handoffs {
		kind := "network"
		if h.LinkLayerOnly {
			kind = "link-layer"
		}
		anticipation := "anticipated"
		if !h.Anticipated {
			anticipation = "unanticipated"
		}
		fmt.Fprintf(out, "  host %d: %s %s at %.3fs, blackout %v, grants nar=%t par=%t\n",
			h.Host, anticipation, kind, h.Detached.Seconds(),
			(h.Attached - h.Detached).Round(time.Millisecond), h.NARGranted, h.PARGranted)
	}
	if len(report.DropsByLocation) > 0 {
		fmt.Fprintf(out, "\ndrops by location:\n")
		for _, where := range dropSites(report.DropsByLocation) {
			fmt.Fprintf(out, "  %-12s%6d\n", where, report.DropsByLocation[where])
		}
	}
}

// dropSites orders a report's drop sites: the canonical ones in the stats
// package's order, then any others by name.
func dropSites(drops map[string]uint64) []string {
	rank := func(where string) int {
		if id, ok := stats.LookupSite(where); ok && id <= stats.SiteAirUplink {
			return int(id)
		}
		return int(stats.SiteAirUplink) + 1
	}
	sites := make([]string, 0, len(drops))
	for where := range drops {
		sites = append(sites, where)
	}
	sort.Slice(sites, func(i, j int) bool {
		if ri, rj := rank(sites[i]), rank(sites[j]); ri != rj {
			return ri < rj
		}
		return sites[i] < sites[j]
	})
	return sites
}
