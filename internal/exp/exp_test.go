package exp

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// quick sizes a run for CI: one short repetition at seed 1.
func quick() campaign.Ctx {
	return campaign.Ctx{Seed: 1, Duration: 4 * sim.Second, Warmup: 2 * sim.Second}
}

// longer is used where dynamics need time to develop (TCP buffer filling).
func longer() campaign.Ctx {
	return campaign.Ctx{Seed: 1, Duration: 20 * sim.Second, Warmup: 5 * sim.Second}
}

// runSpec builds spec at its default grid point with the given axis
// values replaced and executes one repetition at ctx's seed and timing.
func runSpec(t *testing.T, spec *Spec, ctx campaign.Ctx, over Params) *campaign.Metrics {
	t.Helper()
	p := spec.Defaults()
	for k, v := range over {
		p[k] = v
	}
	inst, err := spec.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := inst.Execute(ctx)
	return m
}

// scalar returns the named scalar metric, failing the test if the run
// did not emit it.
func scalar(t *testing.T, m *campaign.Metrics, name string) float64 {
	t.Helper()
	v, ok := m.Scalar(name)
	if !ok {
		t.Fatalf("no %s metric", name)
	}
	return v
}

func TestNetConstruction(t *testing.T) {
	n := NewNet(NetConfig{Seed: 1, Scheme: mac.SchemeFQMAC, Stations: DefaultStations()})
	if len(n.Stations) != 3 {
		t.Fatalf("stations = %d", len(n.Stations))
	}
	if n.Stations[2].APView.Rate.Mbps() > 8 {
		t.Fatal("slow station rate wrong")
	}
	if got := n.World.StationNames(); got[0] != "fast1" || got[2] != "slow" {
		t.Fatalf("names = %v", got)
	}
	// Flow ids are unique.
	if n.Flow() == n.Flow() {
		t.Fatal("flow ids repeat")
	}
}

// TestUDPAnomalyAndFix is the headline check: the slow station dominates
// airtime under FIFO; the airtime scheduler equalises shares and
// multiplies total throughput.
func TestUDPAnomalyAndFix(t *testing.T) {
	fifo := runSpec(t, SpecUDP(), quick(), Params{"scheme": "FIFO"})
	air := runSpec(t, SpecUDP(), quick(), Params{"scheme": "Airtime"})
	if s := scalar(t, fifo, "share-slow"); s < 0.6 {
		t.Errorf("FIFO slow share = %.2f, want > 0.6 (the anomaly)", s)
	}
	for _, name := range []string{"fast1", "fast2", "slow"} {
		if s := scalar(t, air, "share-"+name); s < 0.25 || s > 0.42 {
			t.Errorf("airtime share[%s] = %.2f, want ~1/3", name, s)
		}
	}
	if a, f := scalar(t, air, "total-mbps"), scalar(t, fifo, "total-mbps"); a < 2*f {
		t.Errorf("airtime total %.1f Mbps not >> FIFO %.1f Mbps", a, f)
	}
	if agg := scalar(t, air, "aggr-fast1"); agg < 10 {
		t.Errorf("fast aggregation %.1f under airtime, want large", agg)
	}
	if agg := scalar(t, fifo, "aggr-slow"); agg < 1.5 || agg > 2.1 {
		t.Errorf("slow aggregation %.1f, want ~2 (4ms cap)", agg)
	}
}

// TestLatencyOrdering verifies the Figure 4 relationships: FIFO slow-path
// latency is an order of magnitude above FQ-MAC's.
func TestLatencyOrdering(t *testing.T) {
	fifo := runSpec(t, SpecLatency(), longer(), Params{"scheme": "FIFO"})
	fqm := runSpec(t, SpecLatency(), longer(), Params{"scheme": "FQ-MAC"})
	fifoSlow, fqmSlow := fifo.Sample("slow-rtt-ms"), fqm.Sample("slow-rtt-ms")
	if fifoSlow.Median() < 5*fqmSlow.Median() {
		t.Errorf("FIFO slow median %.0f ms not >> FQ-MAC %.0f ms",
			fifoSlow.Median(), fqmSlow.Median())
	}
	if fqmSlow.Median() > 60 {
		t.Errorf("FQ-MAC slow median %.0f ms, want tens of ms", fqmSlow.Median())
	}
	if fifo.Sample("fast-rtt-ms").N() == 0 || fifoSlow.N() == 0 {
		t.Fatal("no latency samples")
	}
}

// TestFairnessIndexOrdering verifies the Figure 6 relationship: Jain's
// index improves monotonically from FIFO to the airtime scheduler for UDP.
func TestFairnessIndexOrdering(t *testing.T) {
	fifo := scalar(t, runSpec(t, SpecFairness(), quick(), Params{"scheme": "FIFO", "traffic": "udp"}), "jain")
	air := scalar(t, runSpec(t, SpecFairness(), quick(), Params{"scheme": "Airtime", "traffic": "udp"}), "jain")
	if air < 0.99 {
		t.Errorf("airtime Jain = %.3f, want ~1", air)
	}
	if fifo > 0.75 {
		t.Errorf("FIFO Jain = %.3f, want well below 1", fifo)
	}
	// TCP download under airtime also stays near 1 (paper: close to
	// perfect for unidirectional traffic).
	airTCP := scalar(t, runSpec(t, SpecFairness(), longer(), Params{"scheme": "Airtime", "traffic": "tcp-down"}), "jain")
	if airTCP < 0.93 {
		t.Errorf("airtime TCP Jain = %.3f, want > 0.93", airTCP)
	}
}

// TestThroughputOrdering verifies the Figure 7 pattern: average TCP
// throughput rises from FIFO through the airtime scheduler, the fast
// stations gain and the slow station is throttled.
func TestThroughputOrdering(t *testing.T) {
	fifo := runSpec(t, SpecThroughput(), longer(), Params{"scheme": "FIFO"})
	air := runSpec(t, SpecThroughput(), longer(), Params{"scheme": "Airtime"})
	if a, f := scalar(t, air, "avg-mbps"), scalar(t, fifo, "avg-mbps"); a < 1.5*f {
		t.Errorf("airtime avg %.1f not >> FIFO avg %.1f", a, f)
	}
	if a, f := scalar(t, air, "mbps-slow"), scalar(t, fifo, "mbps-slow"); a > f {
		t.Errorf("slow station gained under fairness: %.1f > %.1f", a, f)
	}
	if a := scalar(t, air, "mbps-fast1"); a < 15 {
		t.Errorf("fast station only %.1f Mbps under airtime", a)
	}
}

// TestSparseOptimisation verifies the Figure 8 effect: the ping-only
// station sees lower median latency with the optimisation enabled.
func TestSparseOptimisation(t *testing.T) {
	on := runSpec(t, SpecSparse(), quick(), Params{"bulk": "udp", "opt": "on"}).Sample("sparse-rtt-ms")
	off := runSpec(t, SpecSparse(), quick(), Params{"bulk": "udp", "opt": "off"}).Sample("sparse-rtt-ms")
	if on.N() == 0 || off.N() == 0 {
		t.Fatal("no samples")
	}
	if on.Median() > off.Median() {
		t.Errorf("sparse opt did not help: enabled %.2f ms vs disabled %.2f ms",
			on.Median(), off.Median())
	}
}

// TestVoIPMOS verifies the Table 2 pattern: FIFO best-effort voice is
// unusable, FQ-MAC/airtime best-effort voice is excellent.
func TestVoIPMOS(t *testing.T) {
	mos := func(scheme, qos string) float64 {
		m := runSpec(t, SpecVoIP(), longer(), Params{"scheme": scheme, "qos": qos, "delay-ms": "5"})
		return scalar(t, m, "mos")
	}
	fifoBE, airBE := mos("FIFO", "BE"), mos("Airtime", "BE")
	if airBE < 4.0 {
		t.Errorf("airtime BE MOS = %.2f, want >= 4.0", airBE)
	}
	if fifoBE > airBE-0.5 {
		t.Errorf("FIFO BE MOS %.2f not clearly worse than airtime %.2f", fifoBE, airBE)
	}
	if fifoVO := mos("FIFO", "VO"); fifoVO < fifoBE {
		t.Errorf("VO marking (%.2f) did not beat BE (%.2f) under FIFO", fifoVO, fifoBE)
	}
}

// TestWebPLT verifies the Figure 11 relationship: a fast station's page
// load times shrink dramatically from FIFO to the fixed stack.
func TestWebPLT(t *testing.T) {
	fifo := runSpec(t, SpecWeb(), longer(), Params{"scheme": "FIFO", "page": "small"}).Sample("plt-ms")
	air := runSpec(t, SpecWeb(), longer(), Params{"scheme": "Airtime", "page": "small"}).Sample("plt-ms")
	if fifo.N() == 0 || air.N() == 0 {
		t.Fatal("no fetches completed")
	}
	if air.Median() > fifo.Median() {
		t.Errorf("airtime PLT %.0f ms not faster than FIFO %.0f ms",
			air.Median(), fifo.Median())
	}
}

// TestScale30 runs a reduced version of §4.1.5 (12 stations to keep CI
// fast) and checks the slow 1 Mbps station is contained by the airtime
// scheduler.
func TestScale30(t *testing.T) {
	ctx := campaign.Ctx{Seed: 1, Duration: 10 * sim.Second, Warmup: 4 * sim.Second}
	fqc := runSpec(t, SpecScale(), ctx, Params{"scheme": "FQ-CoDel", "stations": "12"})
	air := runSpec(t, SpecScale(), ctx, Params{"scheme": "Airtime", "stations": "12"})
	if s := scalar(t, fqc, "slow-share"); s < 0.4 {
		t.Errorf("FQ-CoDel slow share = %.2f, want > 0.4 (1 Mbps hog)", s)
	}
	expected := 1.0 / 11 // 11 active stations share airtime
	if s := scalar(t, air, "slow-share"); s > 2*expected {
		t.Errorf("airtime slow share = %.2f, want ~%.2f", s, expected)
	}
	if a, f := scalar(t, air, "total-mbps"), scalar(t, fqc, "total-mbps"); a < 2*f {
		t.Errorf("airtime total %.1f not >> FQ-CoDel %.1f", a, f)
	}
}

// TestTable1Assembly checks the combined model+measurement table: the
// table1 scenario's FIFO and Airtime cells carry the paper's rows.
func TestTable1Assembly(t *testing.T) {
	names := []string{"fast1", "fast2", "slow"}
	cell := func(scheme string) *campaign.Metrics {
		m := runSpec(t, SpecTable1(), quick(), Params{"scheme": scheme})
		for _, name := range names {
			for _, col := range []string{"aggr-", "model-share-", "base-mbps-", "model-mbps-", "measured-mbps-"} {
				scalar(t, m, col+name)
			}
		}
		return m
	}
	baseline, fair := cell("FIFO"), cell("Airtime")
	// Fair block: model says exactly 1/3 shares.
	for _, name := range names {
		if s := scalar(t, fair, "model-share-"+name); s < 0.33 || s > 0.34 {
			t.Errorf("fair share %.3f, want 1/3", s)
		}
	}
	// Baseline: slow station's share dominates in the model given its
	// measured aggregation.
	if s := scalar(t, baseline, "model-share-slow"); s < 0.6 {
		t.Errorf("baseline model slow share %.2f, want > 0.6", s)
	}
	// Model and measurement agree within a factor of 1.6 per station.
	for _, m := range []*campaign.Metrics{baseline, fair} {
		for _, name := range names {
			model, meas := scalar(t, m, "model-mbps-"+name), scalar(t, m, "measured-mbps-"+name)
			if meas <= 0 {
				t.Errorf("%s: no measured throughput", name)
				continue
			}
			ratio := model / meas
			if ratio < 0.55 || ratio > 1.8 {
				t.Errorf("%s: model %.1f vs measured %.1f Mbps (ratio %.2f)",
					name, model, meas, ratio)
			}
		}
	}
}

// TestBidirFairness: with bidirectional TCP the airtime scheduler still
// keeps Jain's index high (paper: slight dip only).
func TestBidirFairness(t *testing.T) {
	m := runSpec(t, SpecFairness(), longer(), Params{"scheme": "Airtime", "traffic": "tcp-bidir"})
	if j := scalar(t, m, "jain"); j < 0.85 {
		t.Errorf("bidir Jain = %.3f, want > 0.85", j)
	}
}

// TestDeterminism: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	encode := func() []byte {
		b, err := campaign.EncodeMetrics(runSpec(t, SpecUDP(), quick(), Params{"scheme": "Airtime"}))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("non-deterministic results for identical seeds")
	}
}

// TestMixedWorkloadAllSchemes sanity-checks the full testbed wiring under
// a mixed workload on every scheme.
func TestMixedWorkloadAllSchemes(t *testing.T) {
	for _, scheme := range mac.Schemes {
		n := NewNet(NetConfig{Seed: 3, Scheme: scheme, Stations: FourStations()})
		down := n.DownloadTCP(n.Stations[0], pkt.ACBE)
		up := n.UploadTCP(n.Stations[1], pkt.ACBE)
		_, usink := n.DownloadUDP(n.Stations[2], 5e6, pkt.ACBE)
		_, vsink := n.VoIPDown(n.Stations[3], pkt.ACVO)
		png := n.Ping(n.Stations[0], 0, 1)
		n.Run(5 * sim.Second)
		if usink.Received == 0 || vsink.Received == 0 || png.Received == 0 {
			t.Errorf("%v: missing traffic: udp=%d voip=%d ping=%d",
				scheme, usink.Received, vsink.Received, png.Received)
		}
		if down.Server().TotalReceived() == 0 || up.Server().TotalReceived() == 0 {
			t.Errorf("%v: TCP transfers made no progress", scheme)
		}
	}
}

// TestBidirLatencyVariant covers the appendix's upload+download case: the
// latency scenario's bidir cell produces samples for both classes.
func TestBidirLatencyVariant(t *testing.T) {
	ctx := campaign.Ctx{Seed: 2, Duration: 4 * sim.Second, Warmup: 2 * sim.Second}
	m := runSpec(t, SpecLatency(), ctx, Params{"scheme": "Airtime", "dir": "bidir"})
	if m.Sample("fast-rtt-ms").N() == 0 || m.Sample("slow-rtt-ms").N() == 0 {
		t.Fatal("no samples in bidirectional latency run")
	}
}

// TestWebSlowVariant covers the slow-station-browsing appendix case.
func TestWebSlowVariant(t *testing.T) {
	ctx := campaign.Ctx{Seed: 3, Duration: 8 * sim.Second, Warmup: 2 * sim.Second}
	plt := runSpec(t, SpecWeb(), ctx, Params{"scheme": "Airtime", "page": "small", "browser": "slow"}).Sample("plt-ms")
	if plt.N() == 0 {
		t.Fatal("slow-station browser completed no fetches")
	}
	// Browsing over a 7.2 Mbps station among busy fast stations must be
	// slower than the base wired RTT but still complete in seconds.
	if plt.Median() < 20 || plt.Median() > 5000 {
		t.Fatalf("slow-variant PLT median %.0f ms implausible", plt.Median())
	}
}

// TestStationMACOverride verifies the client-side MAC override plumbing.
func TestStationMACOverride(t *testing.T) {
	n := NewNet(NetConfig{
		Seed: 4, Scheme: mac.SchemeFQMAC, Stations: DefaultStations()[:1],
		StationMAC: mac.Config{RTSThreshold: sim.Millisecond},
	})
	if n.Stations[0].Node.Config().RTSThreshold != sim.Millisecond {
		t.Fatal("station MAC override not applied")
	}
	if n.Stations[0].Node.Scheme() != mac.SchemeFIFO {
		t.Fatal("station scheme must remain FIFO")
	}
}

// TestDTTInTestbed: the fifth scheme works through the full testbed and,
// with no uplink contention, splits downlink airtime near evenly.
func TestDTTInTestbed(t *testing.T) {
	n := NewNet(NetConfig{Seed: 5, Scheme: mac.SchemeDTT, Stations: DefaultStations()})
	sinks := make([]*traffic.UDPSink, 0, 3)
	for _, st := range n.Stations {
		_, sink := n.DownloadUDP(st, 50e6, pkt.ACBE)
		sinks = append(sinks, sink)
	}
	n.Run(5 * sim.Second)
	airtime := make([]float64, len(n.Stations))
	for i, s := range sinks {
		if s.Received == 0 {
			t.Errorf("station %d received nothing under DTT", i)
		}
		airtime[i] = n.Stations[i].APView.Airtime().Seconds()
	}
	if j := stats.JainIndex(airtime); j < 0.95 {
		t.Errorf("DTT downlink Jain = %.3f, want near 1 without contention", j)
	}
}
