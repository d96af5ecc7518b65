// webbrowse reproduces the scenario behind the paper's Figure 11: a fast
// station loads web pages while the slow station runs a bulk download.
// Page-load time collapses by an order of magnitude once the WiFi
// bufferbloat is fixed.
package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	fmt.Println("Web browsing on a fast station while the slow station bulk-downloads:")
	fmt.Printf("%-10s %18s %18s\n", "scheme", "small page (56KB)", "large page (3MB)")
	for _, scheme := range mac.Schemes {
		var plt [2]float64
		for i, page := range []traffic.WebPage{traffic.SmallPage, traffic.LargePage} {
			n := exp.NewNet(exp.NetConfig{
				Seed:     1,
				Scheme:   scheme,
				Stations: exp.DefaultStations(),
			})
			n.DownloadTCP(n.Stations[2], pkt.ACBE) // slow station bulk transfer
			n.Run(3 * sim.Second)
			wc := n.Web(n.Stations[0], page)
			wc.Start()
			n.Run(33 * sim.Second)
			wc.Stop()
			plt[i] = wc.PLT.Mean()
		}
		fmt.Printf("%-10s %15.0f ms %15.0f ms\n", scheme, plt[0], plt[1])
	}
	fmt.Println("\nCompare with the paper's Figure 11: FIFO is the slowest,")
	fmt.Println("Airtime-fair FQ the fastest, with an order-of-magnitude gap.")
}
