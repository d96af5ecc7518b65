// manystations reproduces the paper's §4.1.5 scaling experiment (Figures
// 9 and 10): an access point with 30 clients, one of which is pinned to
// the 1 Mbps legacy rate. Even against 28 competing fast stations, the
// slow client captures most of the airtime — until the airtime scheduler
// is enabled, which also multiplies total throughput (the paper measured
// 5.4x).
//
// It runs the registered "scale" scenario through the campaign engine,
// once per scheme. Run with -stations and -dur to change the scale.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sim"
)

const warmup = 5 * sim.Second

func main() {
	stations := flag.Int("stations", 30, "total number of clients (at least 4)")
	dur := flag.Int("dur", 20, "measured seconds per scheme")
	flag.Parse()
	// campaign.Plan would replace a non-positive duration with its
	// default, and sim.Time cannot hold a longer run than maxDur.
	const maxDur = (math.MaxInt64 - warmup) / sim.Second
	if *dur < 1 || sim.Time(*dur) > maxDur {
		fmt.Fprintf(os.Stderr, "manystations: -dur must be 1 to %d seconds, got %d\n", int64(maxDur), *dur)
		os.Exit(2)
	}

	res, err := exp.NewRegistry().Execute(campaign.Plan{
		Scenarios: []string{"scale"},
		Overrides: map[string][]string{"stations": {strconv.Itoa(*stations)}},
		Reps:      1,
		Duration:  sim.Time(*dur) * sim.Second,
		Warmup:    warmup,
		BaseSeed:  1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(res.Render())
	fmt.Println()
	fmt.Println("The 1 Mbps station's share (slow-share) drops from a majority to 1/N,")
	fmt.Println("and total throughput rises several-fold (paper: 3.3 -> 17.7 Mbps).")
}
