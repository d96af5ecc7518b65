// airtime-sim runs a single ad-hoc scenario on the simulated testbed and
// prints per-station results: airtime shares, goodput, aggregation level
// and ping latency. The traffic mix is composed from the experiment
// layer's Workload attachments and measured through its Runtime, the
// same machinery the declarative campaign Specs run on.
//
// Example:
//
//	airtime-sim -scheme airtime -fast 2 -slow-mcs 0 -traffic tcp -dur 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// parseScheme resolves any registered scheme name through the registry,
// keeping the historical lowercase aliases for the paper schemes.
func parseScheme(s string) (mac.Scheme, error) {
	switch strings.ToLower(s) {
	case "fqcodel":
		return mac.SchemeFQCoDel, nil
	case "fqmac":
		return mac.SchemeFQMAC, nil
	case "airtime-fq":
		return mac.SchemeAirtimeFQ, nil
	}
	scheme, err := exp.ParseScheme(s)
	if err != nil {
		return 0, fmt.Errorf("unknown scheme %q (one of: %s)",
			s, strings.ToLower(strings.Join(mac.SchemeNames(), "|")))
	}
	return scheme, nil
}

// workloads maps the -traffic flag onto a workload composition.
func workloads(kind string, udpRateBps float64) ([]*exp.Workload, error) {
	var ws []*exp.Workload
	switch kind {
	case "udp":
		ws = []*exp.Workload{exp.UDPFlood(udpRateBps)}
	case "tcp":
		ws = []*exp.Workload{exp.TCPDown()}
	case "bidir":
		ws = []*exp.Workload{exp.TCPDown(), exp.TCPUp()}
	default:
		return nil, fmt.Errorf("unknown traffic %q", kind)
	}
	return append(ws, exp.Pings(0)), nil
}

func main() {
	schemeFlag := flag.String("scheme", "airtime",
		"queueing scheme: fifo|fqcodel|fqmac|airtime|dtt|airtime-rr|weighted-airtime (any registered scheme)")
	fast := flag.Int("fast", 2, "number of fast stations")
	fastMCS := flag.Int("fast-mcs", 15, "MCS index of fast stations")
	slow := flag.Int("slow", 1, "number of slow stations")
	slowMCS := flag.Int("slow-mcs", 0, "MCS index of slow stations (-1 = 1 Mbps legacy)")
	trafficKind := flag.String("traffic", "udp", "traffic: udp|tcp|bidir")
	rate := flag.Float64("udp-mbps", 50, "offered UDP load per station")
	dur := flag.Float64("dur", 15, "measured seconds")
	warm := flag.Float64("warmup", 3, "warmup seconds")
	seed := flag.Uint64("seed", 1, "random seed")
	loss := flag.Float64("mpdu-loss", 0, "per-MPDU random loss probability")
	slowWeight := flag.Float64("slow-weight", 0, "airtime weight of slow stations, in [1/256, 256] (weighted schemes only; 0 = default 1)")
	amsdu := flag.Int("amsdu", 0, "A-MSDU bundle size in bytes (0 disables two-level aggregation)")
	traceN := flag.Int("trace", 0, "dump the last N AP trace events")
	flag.Parse()

	scheme, err := parseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ws, err := workloads(*trafficKind, *rate*1e6)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *slowWeight != 0 {
		if err := sched.CheckWeight(*slowWeight); err != nil {
			fmt.Fprintln(os.Stderr, "-slow-weight:", err)
			os.Exit(2)
		}
	}

	var specs []exp.StationSpec
	for i := 0; i < *fast; i++ {
		specs = append(specs, exp.StationSpec{
			Name: fmt.Sprintf("fast%d", i+1), Rate: phy.MCS(*fastMCS, true),
		})
	}
	slowRate := phy.Legacy(1)
	if *slowMCS >= 0 {
		slowRate = phy.MCS(*slowMCS, true)
	}
	weights := make(map[string]float64)
	for i := 0; i < *slow; i++ {
		name := fmt.Sprintf("slow%d", i+1)
		specs = append(specs, exp.StationSpec{Name: name, Rate: slowRate})
		if *slowWeight != 0 {
			weights[name] = *slowWeight
		}
	}

	n := exp.NewNet(exp.NetConfig{
		Seed: *seed, Scheme: scheme, Stations: specs,
		AP:      mac.Config{PerMPDULoss: *loss, MaxAMSDU: *amsdu},
		Weights: weights,
	})
	var tl *trace.Log
	if *traceN > 0 {
		tl = trace.NewLog(*traceN)
		n.AP.Trace = tl
	}

	// The bulk mix attaches from t=0; pings once the load has settled.
	rt := exp.NewRuntime(n)
	rt.AttachPhase(ws, exp.PhaseStart)
	warmT := sim.Time(*warm * float64(sim.Second))
	endT := warmT + sim.Time(*dur*float64(sim.Second))
	n.Run(warmT)
	rt.AttachPhase(ws, exp.PhaseMeasure)
	rt.Arm()
	n.Run(endT)

	shares := rt.Shares()
	goodputs := rt.Goodputs()
	tbl := stats.Table{Header: []string{
		"station", "rate", "airtime", "goodput(Mbps)", "aggr", "ping med(ms)", "ping p95(ms)",
	}}
	var total float64
	for i, st := range n.Stations {
		mbps := goodputs[i] / 1e6
		total += mbps
		var rtt stats.Sample
		rt.RTT(i, &rtt)
		tbl.AddRow(
			st.Name,
			st.Rate.String(),
			fmt.Sprintf("%.1f%%", 100*shares[i]),
			fmt.Sprintf("%.1f", mbps),
			fmt.Sprintf("%.2f", st.APView.MeanAggregation()),
			fmt.Sprintf("%.1f", rtt.Median()),
			fmt.Sprintf("%.1f", rtt.Quantile(0.95)),
		)
	}
	fmt.Printf("scheme=%s traffic=%s dur=%.0fs\n\n", scheme, *trafficKind, *dur)
	fmt.Print(tbl.String())
	fmt.Printf("\ntotal goodput: %.1f Mbps   Jain(airtime): %.3f   medium collisions: %d\n",
		total, stats.JainIndex(rt.AirDeltas()), n.Env.Medium.Collisions)
	if tl != nil {
		fmt.Println()
		fmt.Print(tl.Dump(*traceN))
	}
}
