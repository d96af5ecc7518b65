// voipcall reproduces the scenario behind the paper's Table 2: a VoIP
// call to a slow station that is simultaneously downloading, while three
// fast stations run bulk downloads. It scores the call with the ITU-T
// G.107 E-model under all four queue-management schemes, with the voice
// stream marked either best-effort (BE) or voice (VO).
//
// The punchline of §4.2.1: with the paper's queueing structure, best-
// effort voice scores better than VO-marked voice does on the unmodified
// stack — applications no longer depend on DiffServ markings surviving
// the path.
package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

func main() {
	fmt.Println("VoIP call to the slow station, bulk TCP everywhere (10 s):")
	fmt.Printf("%-10s %6s %6s\n", "scheme", "BE-MOS", "VO-MOS")
	for _, scheme := range mac.Schemes {
		var mos [2]float64
		for i, ac := range []pkt.AC{pkt.ACBE, pkt.ACVO} {
			n := exp.NewNet(exp.NetConfig{
				Seed:       1,
				Scheme:     scheme,
				Stations:   exp.FourStations(),
				WiredDelay: 5 * sim.Millisecond,
			})
			var slow *exp.Station
			for _, st := range n.Stations {
				n.DownloadTCP(st, pkt.ACBE)
				if st.Name == "slow" {
					slow = st
				}
			}
			// Let the bulk flows fill the queues before the call starts.
			n.Run(3 * sim.Second)
			_, sink := n.VoIPDown(slow, ac)
			n.Run(13 * sim.Second)
			mos[i] = sink.MOS()
		}
		fmt.Printf("%-10s %6.2f %6.2f\n", scheme, mos[0], mos[1])
	}
	fmt.Println("\nMOS 4.4 is pristine; 1.0 is unusable. Note BE under FQ-MAC/")
	fmt.Println("Airtime beating VO under FIFO, the paper's §4.2.1 result.")
}
