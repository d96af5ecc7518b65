// Quickstart: reproduce the 802.11 performance anomaly and its fix in a
// dozen lines. Two fast stations and one slow station receive UDP floods;
// we print the airtime shares and per-station goodput under the unmodified
// stack (FIFO) and under the airtime-fairness scheduler.
package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	for _, scheme := range []mac.Scheme{mac.SchemeFIFO, mac.SchemeAirtimeFQ} {
		n := exp.NewNet(exp.NetConfig{
			Seed:     1,
			Scheme:   scheme,
			Stations: exp.DefaultStations(),
		})
		sinks := make([]*traffic.UDPSink, len(n.Stations))
		for i, st := range n.Stations {
			_, sinks[i] = n.DownloadUDP(st, 50e6, pkt.ACBE)
		}
		n.Run(10 * sim.Second)

		// Airtime as the AP accounts it (TX + RX) since t = 0.
		airtime := make([]float64, len(n.Stations))
		for i, st := range n.Stations {
			airtime[i] = st.APView.Airtime().Seconds()
		}
		shares := stats.Shares(airtime)
		fmt.Printf("%s:\n", scheme)
		for i, st := range n.Stations {
			fmt.Printf("  %-6s airtime %5.1f%%  goodput %6.1f Mbps  mean A-MPDU %5.2f pkts\n",
				st.Name, 100*shares[i], sinks[i].GoodputBps()/1e6,
				st.APView.MeanAggregation())
		}
		fmt.Printf("  Jain's fairness index: %.3f\n\n", stats.JainIndex(airtime))
	}
	fmt.Println("The slow station hogs the air under FIFO (the anomaly);")
	fmt.Println("the deficit scheduler splits airtime exactly three ways.")
}
