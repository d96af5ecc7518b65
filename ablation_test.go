package repro

// Ablation benchmarks for the design choices the paper (and DESIGN.md)
// call out: the airtime quantum granularity, RX-airtime accounting for
// bidirectional fairness, the per-station CoDel parameter switch, the
// A-MPDU duration cap, and robustness to random MPDU loss.

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkAblationQuantum sweeps the airtime scheduler quantum. Fairness
// must be insensitive to it (the deficit mechanism guarantees long-run
// shares); only scheduling granularity changes.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []sim.Time{100 * sim.Microsecond, 300 * sim.Microsecond,
		1 * sim.Millisecond, 8 * sim.Millisecond} {
		q := q
		b.Run(q.String(), func(b *testing.B) {
			var jain float64
			for i := 0; i < b.N; i++ {
				n := exp.NewNet(exp.NetConfig{
					Seed: uint64(i) + 1, Scheme: mac.SchemeAirtimeFQ,
					Stations: exp.DefaultStations(),
					AP:       mac.Config{AirtimeQuantum: q},
				})
				for _, st := range n.Stations {
					n.DownloadUDP(st, 50e6, pkt.ACBE)
				}
				n.Run(2 * sim.Second)
				snap := n.World.SnapshotAirtime()
				n.Run(8 * sim.Second)
				jain += stats.JainIndex(n.World.AirtimeSince(snap))
			}
			b.ReportMetric(jain/float64(b.N), "jain")
		})
	}
}

// fairnessCtx is the seed and timing of the fairness-scenario ablations.
func fairnessCtx(i int) campaign.Ctx {
	return campaign.Ctx{Seed: uint64(i) + 1, Duration: 10 * sim.Second, Warmup: 3 * sim.Second}
}

// BenchmarkAblationRxAccounting measures what charging received frames
// to the sender's deficit (§3.2 advantage 2) buys under bidirectional
// TCP. The scheduler has no switch for RX accounting alone, so it
// compares Airtime (which charges RX) against FQ-MAC (which has no
// airtime control at all) and reports both Jain indices; the gap
// quantifies what the scheduler buys for traffic it only indirectly
// controls.
func BenchmarkAblationRxAccounting(b *testing.B) {
	for _, scheme := range []mac.Scheme{mac.SchemeFQMAC, mac.SchemeAirtimeFQ} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var jain float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecFairness(), fairnessCtx(i),
					exp.Params{"scheme": scheme.String(), "traffic": "tcp-bidir"})
				jain += scalar(b, m, "jain")
			}
			b.ReportMetric(jain/float64(b.N), "bidir-jain")
		})
	}
}

// BenchmarkAblationCodelSlowParams compares the slow station's latency
// and loss with the per-station CoDel switch (§3.1.1) versus forcing the
// default parameters everywhere (threshold 0 disables the switch).
func BenchmarkAblationCodelSlowParams(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		enabled := enabled
		name := "per-station"
		if !enabled {
			name = "global-default"
		}
		b.Run(name, func(b *testing.B) {
			var med float64
			var drops float64
			for i := 0; i < b.N; i++ {
				cfg := mac.Config{}
				if !enabled {
					// A 1 bps threshold means no station ever counts as
					// slow, so everyone gets the default 5 ms/100 ms.
					cfg.SlowRateThreshold = 1
				}
				n := exp.NewNet(exp.NetConfig{
					Seed: uint64(i) + 1, Scheme: mac.SchemeAirtimeFQ,
					Stations: exp.DefaultStations(), AP: cfg,
				})
				for _, st := range n.Stations {
					n.DownloadTCP(st, pkt.ACBE)
				}
				n.Run(3 * sim.Second)
				p := n.Ping(n.Stations[2], 0, 1)
				n.Run(13 * sim.Second)
				med += p.RTT.Median()
				drops += float64(n.AP.FqStats().CodelDrops())
			}
			b.ReportMetric(med/float64(b.N), "slow-ping-med-ms")
			b.ReportMetric(drops/float64(b.N), "codel-drops")
		})
	}
}

// BenchmarkAblationAggrCap sweeps the A-MPDU air-duration cap: the 4 ms
// ath9k value versus tighter and looser caps, reporting total UDP
// goodput and the slow station's airtime share under round-robin
// (FQ-MAC) service. Tighter caps mitigate the anomaly by shrinking fast
// aggregates less than slow ones.
func BenchmarkAblationAggrCap(b *testing.B) {
	for _, aggCap := range []sim.Time{1 * sim.Millisecond, 4 * sim.Millisecond, 10 * sim.Millisecond} {
		aggCap := aggCap
		b.Run(aggCap.String(), func(b *testing.B) {
			var totalMbps, slowShare float64
			for i := 0; i < b.N; i++ {
				n := exp.NewNet(exp.NetConfig{
					Seed: uint64(i) + 1, Scheme: mac.SchemeFQMAC,
					Stations: exp.DefaultStations(),
					AP:       mac.Config{MaxAggrDur: aggCap},
				})
				deliveredBytes := func() int64 {
					var t int64
					for _, st := range n.Stations {
						t += st.APView.TxBytes
					}
					return t
				}
				for _, st := range n.Stations {
					n.DownloadUDP(st, 50e6, pkt.ACBE)
				}
				n.Run(2 * sim.Second)
				snap := n.World.SnapshotAirtime()
				base := deliveredBytes()
				n.Run(10 * sim.Second)
				shares := stats.Shares(n.World.AirtimeSince(snap))
				slowShare += shares[2]
				totalMbps += float64(deliveredBytes()-base) * 8 / 8e6 // 8 s measured
			}
			b.ReportMetric(totalMbps/float64(b.N), "total-Mbps")
			b.ReportMetric(slowShare/float64(b.N), "slow-share")
		})
	}
}

// BenchmarkAblationMPDULoss sweeps random per-MPDU loss to exercise the
// retry and reorder machinery under the airtime scheduler, reporting
// goodput retention.
func BenchmarkAblationMPDULoss(b *testing.B) {
	for _, loss := range []float64{0, 0.05, 0.20} {
		loss := loss
		b.Run(fmtPct(loss), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				n := exp.NewNet(exp.NetConfig{
					Seed: uint64(i) + 1, Scheme: mac.SchemeAirtimeFQ,
					Stations: exp.DefaultStations(),
					AP:       mac.Config{PerMPDULoss: loss},
				})
				var sinks []*statSink
				for _, st := range n.Stations {
					_, sink := n.DownloadUDP(st, 50e6, pkt.ACBE)
					sinks = append(sinks, &statSink{f: func() int64 { return sink.RcvdBytes }})
				}
				n.Run(2 * sim.Second)
				for _, s := range sinks {
					s.snap = s.f()
				}
				n.Run(10 * sim.Second)
				for _, s := range sinks {
					total += float64(s.f()-s.snap) * 8 / 8e6
				}
			}
			b.ReportMetric(total/float64(b.N), "goodput-Mbps")
		})
	}
}

type statSink struct {
	f    func() int64
	snap int64
}

func fmtPct(f float64) string {
	switch f {
	case 0:
		return "0pct"
	case 0.05:
		return "5pct"
	default:
		return "20pct"
	}
}

// BenchmarkComparisonDTT compares the paper's airtime scheduler against
// the DTT baseline it improves upon (§3.2 advantages 1-2): under
// contention, DTT charges wall-clock submission-to-completion time, which
// includes waiting for other stations, degrading its fairness accuracy;
// it also lacks RX accounting, hurting the bidirectional case further.
func BenchmarkComparisonDTT(b *testing.B) {
	for _, scheme := range []mac.Scheme{mac.SchemeDTT, mac.SchemeAirtimeFQ} {
		for _, tr := range []string{"udp", "tcp-bidir"} {
			scheme, tr := scheme, tr
			b.Run(scheme.String()+"/"+tr, func(b *testing.B) {
				var jain float64
				for i := 0; i < b.N; i++ {
					m := runSpec(b, exp.SpecFairness(), fairnessCtx(i),
						exp.Params{"scheme": scheme.String(), "traffic": tr})
					jain += scalar(b, m, "jain")
				}
				b.ReportMetric(jain/float64(b.N), "jain")
			})
		}
	}
}

// BenchmarkComparisonDTTSparse compares latency to a ping-only station:
// the paper's scheduler has the sparse-station optimisation, DTT does not.
func BenchmarkComparisonDTTSparse(b *testing.B) {
	for _, scheme := range []mac.Scheme{mac.SchemeDTT, mac.SchemeAirtimeFQ} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				n := exp.NewNet(exp.NetConfig{
					Seed: uint64(i) + 1, Scheme: scheme, Stations: exp.FourStations(),
				})
				for _, st := range n.Stations[:3] {
					n.DownloadUDP(st, 50e6, pkt.ACBE)
				}
				n.Run(2 * sim.Second)
				p := n.Ping(n.Stations[3], 0, 1)
				n.Run(8 * sim.Second)
				med += p.RTT.Median()
			}
			b.ReportMetric(med/float64(b.N), "sparse-ping-med-ms")
		})
	}
}

// BenchmarkAblationRTS measures RTS/CTS protection economics in a
// contention-heavy uplink scenario: protection bounds collision cost for
// long low-rate frames at the price of per-frame handshake overhead.
func BenchmarkAblationRTS(b *testing.B) {
	for _, thr := range []sim.Time{0, 2 * sim.Millisecond} {
		thr := thr
		name := "off"
		if thr > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var collisions, goodput float64
			for i := 0; i < b.N; i++ {
				n := exp.NewNet(exp.NetConfig{
					Seed: uint64(i) + 1, Scheme: mac.SchemeAirtimeFQ,
					Stations: []exp.StationSpec{
						{Name: "s1", Rate: exp.SlowRate}, {Name: "s2", Rate: exp.SlowRate},
						{Name: "s3", Rate: exp.SlowRate}, {Name: "s4", Rate: exp.SlowRate},
					},
					AP:         mac.Config{RTSThreshold: thr},
					StationMAC: mac.Config{RTSThreshold: thr},
				})
				for _, st := range n.Stations {
					n.UploadTCP(st, pkt.ACBE)
				}
				n.Run(10 * sim.Second)
				collisions += float64(n.Env.Medium.Collisions)
				var rx int64
				for _, st := range n.Stations {
					rx += int64(st.APView.RxAirtime)
				}
				goodput += float64(rx) / 1e9
			}
			b.ReportMetric(collisions/float64(b.N), "collisions")
			b.ReportMetric(goodput/float64(b.N), "uplink-airtime-s")
		})
	}
}
