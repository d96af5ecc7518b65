// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks. Each iteration runs the
// corresponding experiment on the simulated testbed; the quantities the
// paper reports are attached via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints, next to the usual ns/op, the airtime shares, Jain indices,
// latency medians, throughput and MOS values to compare with the paper
// (see EXPERIMENTS.md for the mapping and the recorded shape agreement).
package repro

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchCtx keeps per-iteration cost moderate; `campaign run` runs the
// paper-scale versions.
func benchCtx(i int) campaign.Ctx {
	return campaign.Ctx{Seed: uint64(i) + 1, Duration: 8 * sim.Second, Warmup: 3 * sim.Second}
}

// runSpec builds spec at its default grid point with the given axis
// values replaced and executes one repetition at ctx's seed and timing.
func runSpec(b *testing.B, spec *exp.Spec, ctx campaign.Ctx, over exp.Params) *campaign.Metrics {
	b.Helper()
	p := spec.Defaults()
	for k, v := range over {
		p[k] = v
	}
	inst, err := spec.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := inst.Execute(ctx)
	return m
}

// scalar returns the named scalar metric, failing the benchmark if the
// run did not emit it.
func scalar(b *testing.B, m *campaign.Metrics, name string) float64 {
	b.Helper()
	v, ok := m.Scalar(name)
	if !ok {
		b.Fatalf("no %s metric", name)
	}
	return v
}

// BenchmarkFig01LatencyTeaser reproduces Figure 1: ping latency under TCP
// download, unmodified stack vs the full solution.
func BenchmarkFig01LatencyTeaser(b *testing.B) {
	var fifoMed, airMed float64
	for i := 0; i < b.N; i++ {
		fifo := runSpec(b, exp.SpecLatency(), benchCtx(i), exp.Params{"scheme": "FIFO"})
		air := runSpec(b, exp.SpecLatency(), benchCtx(i), exp.Params{"scheme": "Airtime"})
		fifoMed += fifo.Sample("slow-rtt-ms").Median()
		airMed += air.Sample("slow-rtt-ms").Median()
	}
	b.ReportMetric(fifoMed/float64(b.N), "fifo-slow-med-ms")
	b.ReportMetric(airMed/float64(b.N), "airtime-slow-med-ms")
}

// BenchmarkTable1ModelVsMeasured reproduces Table 1: the analytical model
// fed with measured aggregation levels against measured UDP throughput.
func BenchmarkTable1ModelVsMeasured(b *testing.B) {
	var fairTotal, baseTotal float64
	for i := 0; i < b.N; i++ {
		base := runSpec(b, exp.SpecTable1(), benchCtx(i), exp.Params{"scheme": "FIFO"})
		fair := runSpec(b, exp.SpecTable1(), benchCtx(i), exp.Params{"scheme": "Airtime"})
		baseTotal += scalar(b, base, "measured-total-mbps")
		fairTotal += scalar(b, fair, "measured-total-mbps")
	}
	b.ReportMetric(baseTotal/float64(b.N), "baseline-total-Mbps")
	b.ReportMetric(fairTotal/float64(b.N), "fair-total-Mbps")
}

// BenchmarkFig04LatencyCDF reproduces Figure 4's four latency
// distributions (medians reported).
func BenchmarkFig04LatencyCDF(b *testing.B) {
	for _, scheme := range []mac.Scheme{mac.SchemeFIFO, mac.SchemeFQCoDel, mac.SchemeFQMAC} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var fast, slow float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecLatency(), benchCtx(i), exp.Params{"scheme": scheme.String()})
				fast += m.Sample("fast-rtt-ms").Median()
				slow += m.Sample("slow-rtt-ms").Median()
			}
			b.ReportMetric(fast/float64(b.N), "fast-med-ms")
			b.ReportMetric(slow/float64(b.N), "slow-med-ms")
		})
	}
}

// BenchmarkFig05AirtimeUDP reproduces Figure 5: per-station airtime shares
// under one-way UDP for all four schemes (slow station's share reported).
func BenchmarkFig05AirtimeUDP(b *testing.B) {
	for _, scheme := range mac.Schemes {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var slowShare, total float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecUDP(), benchCtx(i), exp.Params{"scheme": scheme.String()})
				slowShare += scalar(b, m, "share-slow")
				total += scalar(b, m, "total-mbps")
			}
			b.ReportMetric(slowShare/float64(b.N), "slow-airtime-share")
			b.ReportMetric(total/float64(b.N), "total-Mbps")
		})
	}
}

// BenchmarkFig06JainIndex reproduces Figure 6: Jain's fairness index for
// UDP, TCP download and bidirectional TCP.
func BenchmarkFig06JainIndex(b *testing.B) {
	for _, scheme := range mac.Schemes {
		for _, tr := range []string{"udp", "tcp-down", "tcp-bidir"} {
			scheme, tr := scheme, tr
			b.Run(scheme.String()+"/"+tr, func(b *testing.B) {
				var jain float64
				for i := 0; i < b.N; i++ {
					m := runSpec(b, exp.SpecFairness(), benchCtx(i),
						exp.Params{"scheme": scheme.String(), "traffic": tr})
					jain += scalar(b, m, "jain")
				}
				b.ReportMetric(jain/float64(b.N), "jain")
			})
		}
	}
}

// BenchmarkFig07TCPThroughput reproduces Figure 7: per-station TCP
// download throughput (average reported per scheme).
func BenchmarkFig07TCPThroughput(b *testing.B) {
	for _, scheme := range mac.Schemes {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var avg, slow float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecThroughput(), benchCtx(i), exp.Params{"scheme": scheme.String()})
				avg += scalar(b, m, "avg-mbps")
				slow += scalar(b, m, "mbps-slow")
			}
			b.ReportMetric(avg/float64(b.N), "avg-Mbps")
			b.ReportMetric(slow/float64(b.N), "slow-Mbps")
		})
	}
}

// BenchmarkFig08SparseStations reproduces Figure 8: latency to a
// ping-only station with the sparse-station optimisation on and off.
func BenchmarkFig08SparseStations(b *testing.B) {
	for _, bulk := range []string{"udp", "tcp"} {
		bulk := bulk
		name := "UDP"
		if bulk == "tcp" {
			name = "TCP"
		}
		b.Run(name, func(b *testing.B) {
			var on, off float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecSparse(), benchCtx(i), exp.Params{"bulk": bulk, "opt": "on"})
				on += m.Sample("sparse-rtt-ms").Median()
				m = runSpec(b, exp.SpecSparse(), benchCtx(i), exp.Params{"bulk": bulk, "opt": "off"})
				off += m.Sample("sparse-rtt-ms").Median()
			}
			b.ReportMetric(on/float64(b.N), "enabled-med-ms")
			b.ReportMetric(off/float64(b.N), "disabled-med-ms")
		})
	}
}

// scaleCtx uses a smaller population than the paper's 30 stations to keep
// bench iterations tractable; `campaign run -s scale` runs full scale.
func scaleCtx(i int) campaign.Ctx {
	c := benchCtx(i)
	c.Duration = 10 * sim.Second
	return c
}

// BenchmarkFig09Scale30Airtime reproduces Figure 9 (+ the §4.1.5 totals):
// airtime shares and total throughput with many stations and a 1 Mbps
// legacy client.
func BenchmarkFig09Scale30Airtime(b *testing.B) {
	for _, scheme := range []mac.Scheme{mac.SchemeFQCoDel, mac.SchemeFQMAC, mac.SchemeAirtimeFQ} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var slowShare, total float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecScale(), scaleCtx(i),
					exp.Params{"scheme": scheme.String(), "stations": "16"})
				slowShare += scalar(b, m, "slow-share")
				total += scalar(b, m, "total-mbps")
			}
			b.ReportMetric(slowShare/float64(b.N), "slow-airtime-share")
			b.ReportMetric(total/float64(b.N), "total-Mbps")
		})
	}
}

// BenchmarkFig10Scale30Latency reproduces Figure 10: latency in the
// scaled setup.
func BenchmarkFig10Scale30Latency(b *testing.B) {
	for _, scheme := range []mac.Scheme{mac.SchemeFQCoDel, mac.SchemeAirtimeFQ} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var fast, slow float64
			for i := 0; i < b.N; i++ {
				m := runSpec(b, exp.SpecScale(), scaleCtx(i),
					exp.Params{"scheme": scheme.String(), "stations": "16"})
				fast += m.Sample("fast-rtt-ms").Median()
				slow += m.Sample("slow-rtt-ms").Median()
			}
			b.ReportMetric(fast/float64(b.N), "fast-med-ms")
			b.ReportMetric(slow/float64(b.N), "slow-med-ms")
		})
	}
}

// BenchmarkTable2VoIPMOS reproduces Table 2: MOS and total throughput for
// BE- and VO-marked voice at 5 ms baseline delay.
func BenchmarkTable2VoIPMOS(b *testing.B) {
	for _, scheme := range mac.Schemes {
		for _, qos := range []string{"VO", "BE"} {
			scheme, qos := scheme, qos
			b.Run(scheme.String()+"/"+qos, func(b *testing.B) {
				var mos, thr float64
				for i := 0; i < b.N; i++ {
					m := runSpec(b, exp.SpecVoIP(), benchCtx(i),
						exp.Params{"scheme": scheme.String(), "qos": qos, "delay-ms": "5"})
					mos += scalar(b, m, "mos")
					thr += scalar(b, m, "thrp-mbps")
				}
				b.ReportMetric(mos/float64(b.N), "MOS")
				b.ReportMetric(thr/float64(b.N), "thrp-Mbps")
			})
		}
	}
}

// BenchmarkFig11WebPLT reproduces Figure 11: mean page-load time for the
// small and large pages while the slow station bulk-transfers.
func BenchmarkFig11WebPLT(b *testing.B) {
	for _, scheme := range mac.Schemes {
		for _, page := range []string{"small", "large"} {
			scheme, page := scheme, page
			b.Run(scheme.String()+"/"+page, func(b *testing.B) {
				var plt float64
				for i := 0; i < b.N; i++ {
					ctx := benchCtx(i)
					ctx.Duration = 15 * sim.Second
					m := runSpec(b, exp.SpecWeb(), ctx, exp.Params{"scheme": scheme.String(), "page": page})
					plt += m.Sample("plt-ms").Mean()
				}
				b.ReportMetric(plt/float64(b.N), "mean-plt-ms")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance: events
// processed per wall-clock second for a saturated 3-station UDP scenario.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSpec(b, exp.SpecUDP(), benchCtx(i), exp.Params{"scheme": "Airtime"})
	}
}

// BenchmarkAllocsPerPacket measures the steady-state cost of moving one
// packet through each transmit-path scheme on the udp-flood testbed
// (50 Mbps of downstream UDP per station plus a ping). Run with
// -benchmem: ns/op, allocs/op and B/op divided by the reported pkts/op
// give the per-packet figures; the pooled lifecycles keep allocations
// near zero.
func BenchmarkAllocsPerPacket(b *testing.B) {
	schemes := append(append([]mac.Scheme{}, mac.Schemes...), mac.SchemeDTT)
	for _, scheme := range schemes {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			var pkts, events int64
			for i := 0; i < b.N; i++ {
				n := exp.NewNet(exp.NetConfig{Seed: uint64(i) + 1, Scheme: scheme, Stations: exp.DefaultStations()})
				for _, st := range n.Stations {
					n.DownloadUDP(st, 50e6, pkt.ACBE)
				}
				n.Ping(n.Stations[0], 0, 1)
				n.Run(3 * sim.Second)
				pkts += n.AP.InputPackets
				for _, st := range n.Stations {
					pkts += st.Node.InputPackets
				}
				events += int64(n.Sim.EventsRun())
			}
			b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkDenseScaling checks that the per-packet cost follows the
// active stations, not the associated ones. It sweeps dense multi-BSS
// worlds under the Airtime scheme from one 30-station cell to 1000
// stations in 16 co-channel cells, plus 1000 stations in a single cell.
// Every world carries the same load: 24 active fast stations, spread
// round-robin over the cells, share 60 Mbps of downstream UDP, and each
// cell's slow station is pinged. A hot loop that scans per-association
// or per-BSS state therefore shows up as ns/pkt growing with the
// population; the single-cell point puts every association in one BSS,
// so a scan confined to the granted node's own stations shows there.
// The benchmark fails when a 1000-station point costs more than 1.5x the
// 30-station point per packet.
//
// The worlds are built and warmed up outside the timed window. Then each
// round runs every world for one window, timed directly. Interleaving
// the points puts a slow spell of a shared machine into one round of
// every point rather than into every window of one point. A point's
// ns/pkt is its fastest window; the gated ratio is the median over
// rounds of the point's window divided by the 30-station window of the
// same round, so both sides of a ratio come from the same spell of the
// machine. A window takes only about 10 ms of wall time, so the median
// is taken over 32 rounds: at 8 it swung from 0.9 to 1.6 between runs.
func BenchmarkDenseScaling(b *testing.B) {
	const (
		limit  = 1.5
		rounds = 32
		window = 10 * sim.Second
	)
	points := []struct{ stations, bsss int }{
		{30, 1}, {120, 4}, {480, 8}, {1000, 1}, {1000, 8}, {1000, 16},
	}
	nsPerPkt := make([]float64, len(points))
	for j := range nsPerPkt {
		nsPerPkt[j] = math.Inf(1)
	}
	ratios := make([]stats.Sample, len(points))
	round := make([]float64, len(points))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		worlds := make([]*exp.World, len(points))
		for j, pt := range points {
			worlds[j] = newDenseWorld(pt.stations, pt.bsss, uint64(i)+1)
		}
		runtime.GC()
		b.StartTimer()
		for k := 0; k < rounds; k++ {
			for j, w := range worlds {
				p0 := worldPackets(w)
				start := time.Now()
				w.Run(w.Sim.Now() + window)
				ns := float64(time.Since(start).Nanoseconds())
				round[j] = ns / float64(worldPackets(w)-p0)
				nsPerPkt[j] = min(nsPerPkt[j], round[j])
			}
			for j := range points {
				ratios[j].Add(round[j] / round[0])
			}
		}
	}
	for j, pt := range points {
		r := ratios[j].Median()
		b.ReportMetric(nsPerPkt[j], fmt.Sprintf("ns/pkt-%dsta-%dbss", pt.stations, pt.bsss))
		if j > 0 {
			b.ReportMetric(r, fmt.Sprintf("ratio-%dsta-%dbss", pt.stations, pt.bsss))
		}
		if pt.stations >= 1000 && r > limit {
			b.Errorf("%d stations / %d BSS cost a median %.2fx the %d-station ns/pkt per round (limit %.1fx)",
				pt.stations, pt.bsss, r, points[0].stations, limit)
		}
	}
}

// newDenseWorld builds the dense world BenchmarkDenseScaling times and
// runs it until its packet pool stops growing, so the timed window
// measures the steady state rather than queue build-up.
func newDenseWorld(stations, bsss int, seed uint64) *exp.World {
	// 60 Mbps is below the medium's capacity at every point, so queues
	// stay short and the run measures machinery, not standing buffers.
	const active, offeredBps = 24, 60e6
	w := exp.BuildWorld(exp.NetConfig{Seed: seed, Scheme: mac.SchemeAirtimeFQ, BSSs: exp.DenseTopology(stations, bsss)})
	// Round-robin over the cells, fast stations only (station 0 of each
	// cell is its slow client), so every BSS carries traffic.
	var load []*exp.Station
	for round := 1; len(load) < active; round++ {
		added := false
		for _, cell := range w.Cells {
			if round < len(cell.Stations) && len(load) < active {
				load = append(load, cell.Stations[round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	for _, st := range load {
		st.Cell.DownloadUDP(st, offeredBps/float64(len(load)), pkt.ACBE)
	}
	for _, cell := range w.Cells {
		cell.Ping(cell.Stations[0], 0, cell.BSS+1)
	}
	w.Run(500 * sim.Millisecond)
	pool := pkt.PoolOf(w.Sim)
	prev := pool.Stats().News
	for i := 0; i < 60; i++ {
		w.Run(w.Sim.Now() + 500*sim.Millisecond)
		news := pool.Stats().News
		if news-prev < 16 {
			break
		}
		prev = news
	}
	return w
}

// worldPackets counts the packets that have entered any MAC transmit
// path of w.
func worldPackets(w *exp.World) int64 {
	var c int64
	for _, cell := range w.Cells {
		c += cell.AP.InputPackets
	}
	for _, st := range w.Stations {
		c += st.Node.InputPackets
	}
	return c
}
