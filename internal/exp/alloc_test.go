package exp

import (
	"runtime"
	"testing"

	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestSteadyStateAllocsAndReuse assembles the testbed's two per-packet
// workloads under every paper scheme and measures a 3 s window after a
// 2 s warm-up:
//
//   - udp-flood: 50 Mbps of downstream UDP per station plus a ping, so
//     queues stand and the AQMs drop;
//   - tcp-download: one bulk TCP download per station plus a ping. TCP
//     runs on every data segment and ACK, so a per-segment allocation
//     anywhere in the endpoint, its timers or its SACK bookkeeping shows
//     up as about one malloc per packet.
//
// Each world must allocate fewer than 0.05 times per packet and serve at
// least 90% of its pool Gets without a fresh packet. The window opens
// past the pool's 1 s prewarm horizon, so a sink that leaks its packets
// instead of releasing them reads near 0% reuse. Slab misses keep such a
// leak's UDP mallocs inside the budget, so on udp-flood only the reuse
// row catches it.
func TestSteadyStateAllocsAndReuse(t *testing.T) {
	const (
		mallocBudget = 0.05 // per packet
		reuseFloor   = 0.90
		warmup       = 2 * sim.Second
		windowEnd    = 5 * sim.Second
	)
	workloads := []struct {
		name string
		load func(n *Net, st *Station)
	}{
		{"udp-flood", func(n *Net, st *Station) { n.DownloadUDP(st, 50e6, pkt.ACBE) }},
		{"tcp-download", func(n *Net, st *Station) { n.DownloadTCP(st, pkt.ACBE) }},
	}
	for _, wl := range workloads {
		for _, scheme := range append(append([]mac.Scheme{}, mac.Schemes...), mac.SchemeDTT) {
			t.Run(wl.name+"/"+scheme.String(), func(t *testing.T) {
				n := NewNet(NetConfig{Seed: 1, Scheme: scheme, Stations: DefaultStations()})
				for _, st := range n.Stations {
					wl.load(n, st)
				}
				n.Ping(n.Stations[0], 0, 1)
				packets := func() int64 {
					c := n.AP.InputPackets
					for _, st := range n.Stations {
						c += st.Node.InputPackets
					}
					return c
				}
				pool := pkt.PoolOf(n.Sim)

				n.Run(warmup)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				p0, s0 := packets(), pool.Stats()
				n.Run(windowEnd)
				runtime.ReadMemStats(&after)
				pkts, s1 := packets()-p0, pool.Stats()
				if pkts == 0 {
					t.Fatal("no packets in the window")
				}
				mallocs := after.Mallocs - before.Mallocs
				gets, news := s1.Gets-s0.Gets, s1.News-s0.News
				perPkt := float64(mallocs) / float64(pkts)
				reuse := 1 - float64(news)/float64(gets)
				t.Logf("%d packets: %.4f mallocs per packet, pool reuse %.1f%%", pkts, perPkt, 100*reuse)
				if perPkt >= mallocBudget {
					t.Errorf("%d mallocs over %d packets = %.4f per packet, want < %.2f",
						mallocs, pkts, perPkt, mallocBudget)
				}
				if reuse < reuseFloor {
					t.Errorf("pool reuse %.1f%% (%d of %d Gets fresh), want >= %.0f%%",
						100*reuse, news, gets, 100*reuseFloor)
				}
			})
		}
	}
}
