package exp

import (
	"runtime"
	"testing"

	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestTCPDownloadSteadyStateAllocs assembles the testbed's tcp-download
// world (one bulk TCP download per station plus a ping) under every paper
// scheme and counts heap allocations over a 3 s window after a 2 s
// warm-up. TCP runs on every data segment and ACK, so a per-segment
// allocation anywhere in the endpoint, its timers or its SACK
// bookkeeping shows up as about one malloc per packet.
func TestTCPDownloadSteadyStateAllocs(t *testing.T) {
	const perPkt = 0.05
	for _, scheme := range append(append([]mac.Scheme{}, mac.Schemes...), mac.SchemeDTT) {
		n := NewNet(NetConfig{Seed: 1, Scheme: scheme, Stations: DefaultStations()})
		for _, st := range n.Stations {
			n.DownloadTCP(st, pkt.ACBE)
		}
		n.Ping(n.Stations[0], 0, 1)
		packets := func() int64 {
			c := n.AP.InputPackets
			for _, st := range n.Stations {
				c += st.Node.InputPackets
			}
			return c
		}

		n.Run(2 * sim.Second)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p0 := packets()
		n.Run(5 * sim.Second)
		runtime.ReadMemStats(&after)
		pkts := packets() - p0
		if pkts == 0 {
			t.Fatalf("%v: no packets in the window", scheme)
		}
		mallocs := after.Mallocs - before.Mallocs
		if got := float64(mallocs) / float64(pkts); got >= perPkt {
			t.Errorf("%v: %d mallocs over %d packets = %.3f per packet, want < %.2f",
				scheme, mallocs, pkts, got, perPkt)
		}
	}
}
