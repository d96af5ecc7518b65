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
	"math"
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
	return append(ws, exp.Pings()), nil
}

// options holds the command-line flags.
type options struct {
	scheme, traffic    string
	fast, fastMCS      int
	slow, slowMCS      int
	udpMbps, dur, warm float64
	seed               uint64
	loss, slowWeight   float64
	traceEvents        int
}

func main() {
	var o options
	flag.StringVar(&o.scheme, "scheme", "airtime",
		"queueing scheme: fifo|fqcodel|fqmac|airtime|dtt|airtime-rr|weighted-airtime (any registered scheme)")
	flag.IntVar(&o.fast, "fast", 2, "number of fast stations")
	flag.IntVar(&o.fastMCS, "fast-mcs", 15, "MCS index of fast stations, in [0, 15]")
	flag.IntVar(&o.slow, "slow", 1, "number of slow stations")
	flag.IntVar(&o.slowMCS, "slow-mcs", 0, "MCS index of slow stations, in [0, 15] (-1 = 1 Mbps legacy)")
	flag.StringVar(&o.traffic, "traffic", "udp", "traffic: udp|tcp|bidir")
	flag.Float64Var(&o.udpMbps, "udp-mbps", 50, "offered UDP load per station")
	flag.Float64Var(&o.dur, "dur", 15, "measured seconds")
	flag.Float64Var(&o.warm, "warmup", 3, "warmup seconds")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.loss, "mpdu-loss", 0, "per-MPDU random loss probability")
	flag.Float64Var(&o.slowWeight, "slow-weight", 0, "airtime weight of slow stations, in [1/256, 256] (weighted schemes only; 0 = default 1)")
	flag.IntVar(&o.traceEvents, "trace", 0, "dump the last N AP trace events")
	flag.Parse()

	scheme, err := parseScheme(o.scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ws, err := workloads(o.traffic, o.udpMbps*1e6)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkRanges(&o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var specs []exp.StationSpec
	for i := 0; i < o.fast; i++ {
		specs = append(specs, exp.StationSpec{
			Name: fmt.Sprintf("fast%d", i+1), Rate: phy.MCS(o.fastMCS, true),
		})
	}
	slowRate := phy.Legacy(1)
	if o.slowMCS >= 0 {
		slowRate = phy.MCS(o.slowMCS, true)
	}
	weights := make(map[string]float64)
	for i := 0; i < o.slow; i++ {
		name := fmt.Sprintf("slow%d", i+1)
		specs = append(specs, exp.StationSpec{Name: name, Rate: slowRate})
		if o.slowWeight != 0 {
			weights[name] = o.slowWeight
		}
	}

	n := exp.NewNet(exp.NetConfig{
		Seed: o.seed, Scheme: scheme, Stations: specs,
		AP:      mac.Config{PerMPDULoss: o.loss},
		Weights: weights,
	})
	var tl *trace.Log
	if o.traceEvents > 0 {
		tl = trace.NewLog(o.traceEvents)
		n.AP.Trace = tl
	}

	// The bulk mix attaches from t=0; pings once the load has settled.
	rt := exp.NewRuntime(n.World)
	rt.AttachPhase(ws, exp.PhaseStart)
	warmT := sim.Time(o.warm * float64(sim.Second))
	endT := warmT + sim.Time(o.dur*float64(sim.Second))
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
	fmt.Printf("scheme=%s traffic=%s dur=%.0fs\n\n", scheme, o.traffic, o.dur)
	fmt.Print(tbl.String())
	fmt.Printf("\ntotal goodput: %.1f Mbps   Jain(airtime): %.3f   medium collisions: %d\n",
		total, stats.JainIndex(rt.AirDeltas()), n.Env.Medium.Collisions)
	if tl != nil {
		fmt.Println()
		fmt.Print(tl.Dump(o.traceEvents))
	}
}

// checkRanges rejects, before the world is built, the numeric flag
// values the simulator would panic on (an MCS index outside phy's table,
// a UDP datagram gap outside sim.Time), run silently wrong with (an
// empty or negative window, a loss probability outside [0, 1], negative
// counts or sizes) or never finish (a UDP load over the wired link).
// !(x) also rejects NaN.
func checkRanges(o *options) error {
	switch {
	case o.fastMCS < 0 || o.fastMCS > 15:
		return fmt.Errorf("-fast-mcs must be an MCS index in [0, 15], got %d", o.fastMCS)
	case o.slowMCS < -1 || o.slowMCS > 15:
		return fmt.Errorf("-slow-mcs must be an MCS index in [0, 15] or -1, got %d", o.slowMCS)
	case o.fast < 0:
		return fmt.Errorf("-fast must be 0 or more, got %d", o.fast)
	case o.slow < 0:
		return fmt.Errorf("-slow must be 0 or more, got %d", o.slow)
	case o.fast+o.slow < 1 || o.fast+o.slow > exp.MaxStations:
		return fmt.Errorf("-fast %d plus -slow %d must total 1 to %d stations",
			o.fast, o.slow, exp.MaxStations)
	case !(o.dur > 0):
		return fmt.Errorf("-dur must be a positive number of seconds, got %v", o.dur)
	case !(o.warm >= 0):
		return fmt.Errorf("-warmup must be 0 or more seconds, got %v", o.warm)
	case (o.dur+o.warm)*float64(sim.Second) >= math.MaxInt64:
		return fmt.Errorf("-dur %v plus -warmup %v seconds overflow simulated time", o.dur, o.warm)
	case !(o.loss >= 0 && o.loss <= 1):
		return fmt.Errorf("-mpdu-loss must be a probability in [0, 1], got %v", o.loss)
	case o.traceEvents < 0:
		return fmt.Errorf("-trace must be 0 (off) or a number of events, got %d", o.traceEvents)
	}
	if o.slowWeight != 0 {
		if err := sched.CheckWeight(o.slowWeight); err != nil {
			return fmt.Errorf("-slow-weight: %w", err)
		}
	}
	if o.traffic == "udp" {
		if err := exp.CheckUDPRate(o.udpMbps, o.fast+o.slow); err != nil {
			return fmt.Errorf("-udp-mbps %w", err)
		}
	}
	return nil
}
