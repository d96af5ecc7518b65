// customscheme demonstrates the pluggable transmit path: a new queueing
// scheme is registered at runtime — no simulator changes — by composing
// an existing queue substrate with a scheduler, then compared against
// the paper's configurations on the standard three-station testbed.
//
// The custom scheme here is the Airtime-RR ablation composed again (the
// integrated §3.1 structure plus sched.NewRoundRobin, a strict
// round-robin station scheduler), alongside the Weighted-Airtime policy knob giving the slow
// station half the default airtime share.
package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	custom := mac.RegisterScheme("Example-RR", mac.Composition{
		Desc:     "integrated queueing + the round-robin station scheduler",
		Queueing: mac.IntegratedQueueing,
		Scheduler: func(_ *mac.Node, _ pkt.AC) sched.StationScheduler {
			return sched.NewRoundRobin()
		},
	})

	run := func(scheme mac.Scheme, weights map[string]float64) {
		n := exp.NewNet(exp.NetConfig{
			Seed:     1,
			Scheme:   scheme,
			Stations: exp.DefaultStations(),
			Weights:  weights,
		})
		for _, st := range n.Stations {
			n.DownloadUDP(st, 50e6, pkt.ACBE)
		}
		n.Run(10 * sim.Second)
		airtime := make([]float64, len(n.Stations))
		for i, st := range n.Stations {
			airtime[i] = st.APView.Airtime().Seconds()
		}
		shares := stats.Shares(airtime)
		fmt.Printf("%-18s", scheme)
		for i, st := range n.Stations {
			fmt.Printf("  %s=%5.1f%%", st.Name, 100*shares[i])
		}
		fmt.Printf("  Jain=%.3f\n", stats.JainIndex(airtime))
	}

	fmt.Println("Airtime shares under saturating UDP downloads:")
	run(mac.SchemeFIFO, nil)
	run(mac.SchemeAirtimeFQ, nil)
	run(custom, nil)
	run(exp.SchemeWeightedAirtime, map[string]float64{"slow": 0.5})

	fmt.Println("\nThe registered scheme slots in by value or by name:")
	if s, ok := mac.SchemeByName("example-rr"); ok {
		fmt.Printf("  SchemeByName(\"example-rr\") = %v\n", s)
	}
	fmt.Printf("  registered: %v\n", mac.SchemeNames())
	fmt.Println("\nRound-robin fixes scheduling but not accounting: the slow")
	fmt.Println("station still out-consumes the fast ones. Deficit accounting")
	fmt.Println("(Airtime) equalises shares; weights skew them deliberately.")
}
