// anomaly-model evaluates the paper's §2.2.1 analytical model from the
// command line: given per-station PHY rates and mean aggregation levels it
// prints predicted airtime shares and throughput with and without airtime
// fairness (the calculated columns of Table 1).
//
// Stations are given as repeated -sta flags, "mcs<idx>:<aggr>" or
// "legacy<mbps>:<aggr>", e.g.:
//
//	anomaly-model -sta mcs15:18.44 -sta mcs15:18.52 -sta mcs0:1.89
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/phy"
	"repro/internal/stats"
)

type staList []model.StationParams

func (l *staList) String() string { return fmt.Sprint(len(*l)) }

// Set parses one station spec. It rejects what the model would panic on
// (an MCS index outside phy's table) or answer with zeros, NaNs and
// negative rates (a rate or an aggregation level that is not a finite
// positive number). An aggregate carries at least one MPDU, the floor
// the Table 1 probe clamps a measured level to as well. !(x) also
// rejects NaN.
func (l *staList) Set(s string) error {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want rate:aggr, got %q", s)
	}
	agg, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("bad aggregation %q: %v", parts[1], err)
	}
	if !(agg >= 1) || math.IsInf(agg, 1) {
		return fmt.Errorf("aggregation must be a finite number of MPDUs, at least 1, got %v", agg)
	}
	var rate phy.Rate
	switch {
	case strings.HasPrefix(parts[0], "mcs"):
		idx, err := strconv.Atoi(parts[0][3:])
		if err != nil {
			return fmt.Errorf("bad MCS %q: %v", parts[0], err)
		}
		if idx < 0 || idx > 15 {
			return fmt.Errorf("MCS index must be in [0, 15], got %d", idx)
		}
		rate = phy.MCS(idx, true)
	case strings.HasPrefix(parts[0], "legacy"):
		mbps, err := strconv.ParseFloat(parts[0][6:], 64)
		if err != nil {
			return fmt.Errorf("bad legacy rate %q: %v", parts[0], err)
		}
		if !(mbps > 0) || math.IsInf(mbps, 1) {
			return fmt.Errorf("legacy rate must be a finite number of Mbps above 0, got %v", mbps)
		}
		rate = phy.Legacy(mbps)
	default:
		return fmt.Errorf("rate must be mcsN or legacyM, got %q", parts[0])
	}
	*l = append(*l, model.StationParams{
		Name:    fmt.Sprintf("sta%d", len(*l)+1),
		AggSize: agg,
		PktLen:  1500,
		Rate:    rate,
	})
	return nil
}

func main() {
	var stas staList
	fs := flag.NewFlagSet("anomaly-model", flag.ContinueOnError)
	fs.Var(&stas, "sta", "station spec rate:aggr (repeatable), rate mcs0-mcs15 or legacy<Mbps>, e.g. mcs15:18.44")
	pktLen := fs.Int("pktlen", 1500, "packet size in bytes, in [1, 65535]")
	// A bad value exits 2 with one line naming the flag, not the usage.
	fs.SetOutput(io.Discard)
	switch err := fs.Parse(os.Args[1:]); {
	case err == flag.ErrHelp:
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case *pktLen < 1 || *pktLen > 65535:
		fmt.Fprintf(os.Stderr, "-pktlen must be a packet size in [1, 65535] bytes, got %d\n", *pktLen)
		os.Exit(2)
	}
	if len(stas) == 0 {
		// Default: the paper's Table 1 airtime-fairness block.
		_ = stas.Set("mcs15:18.44")
		_ = stas.Set("mcs15:18.52")
		_ = stas.Set("mcs0:1.89")
	}
	for i := range stas {
		stas[i].PktLen = *pktLen
	}

	for _, fair := range []bool{false, true} {
		title := "Without airtime fairness (802.11 anomaly)"
		if fair {
			title = "With airtime fairness"
		}
		fmt.Printf("\n%s\n", title)
		preds := model.Predict(stas, fair)
		tbl := stats.Table{Header: []string{"station", "rate", "aggr", "T(i)", "base(Mbps)", "R(i)(Mbps)"}}
		for i, p := range preds {
			tbl.AddRow(
				p.Name, stas[i].Rate.String(),
				fmt.Sprintf("%.2f", stas[i].AggSize),
				fmt.Sprintf("%.1f%%", 100*p.AirtimeShare),
				fmt.Sprintf("%.1f", p.BaseRate/1e6),
				fmt.Sprintf("%.1f", p.Rate/1e6),
			)
		}
		fmt.Print(tbl.String())
		fmt.Printf("total: %.1f Mbps\n", model.TotalRate(preds)/1e6)
	}
}
