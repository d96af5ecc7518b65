package mac

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/codel"
	"repro/internal/mactid"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/qdisc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rig builds a minimal AP + n stations environment with packet capture at
// each node.
type rig struct {
	s        *sim.Sim
	env      *Env
	ap       *Node
	stas     []*Node
	received map[pkt.NodeID][]*pkt.Packet
}

// mustNode is NewNode for tests with a scheme in the set.
func mustNode(t testing.TB, env *Env, id pkt.NodeID, name string, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(env, id, name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newRig(t *testing.T, apCfg Config, rates ...phy.Rate) *rig {
	t.Helper()
	s := sim.New(1)
	r := &rig{s: s, env: NewEnv(s), received: make(map[pkt.NodeID][]*pkt.Packet)}
	r.ap = mustNode(t, r.env, 1, "ap", apCfg)
	r.ap.Deliver = func(p *pkt.Packet) { r.received[1] = append(r.received[1], p) }
	for i, rate := range rates {
		id := pkt.NodeID(10 + i)
		sta := mustNode(t, r.env, id, "sta", Config{Scheme: SchemeFIFO})
		sta.Deliver = func(p *pkt.Packet) { r.received[id] = append(r.received[id], p) }
		r.ap.AddStation(sta, rate)
		sta.AddStation(r.ap, rate)
		r.stas = append(r.stas, sta)
	}
	return r
}

// queuedPackets reports every packet queued at n for transmission: in
// the queue substrate, the driver and retry queues and the hardware
// queues.
func queuedPackets(n *Node) int {
	total := 0
	if n.fq != nil {
		total += n.fq.Len()
	}
	for ac := range pkt.NumACs {
		if q := n.Qdisc(pkt.AC(ac)); q != nil {
			total += q.Len()
		}
		for _, s := range n.stationOrder {
			total += s.tids[ac].retryq.Len() + s.tids[ac].bufq.Len()
		}
		for _, agg := range n.txqs[ac].hwq {
			total += len(agg.Pkts)
		}
	}
	return total
}

func dataPkt(dst pkt.NodeID, size int, flow uint64) *pkt.Packet {
	return &pkt.Packet{Size: size, Proto: pkt.ProtoUDP, Src: 1, Dst: dst, Flow: flow, AC: pkt.ACBE}
}

func TestSinglePacketDelivery(t *testing.T) {
	for _, scheme := range Schemes {
		r := newRig(t, Config{Scheme: scheme}, phy.MCS(7, true))
		r.ap.Input(dataPkt(10, 1500, 1))
		r.s.RunUntil(100 * sim.Millisecond)
		if len(r.received[10]) != 1 {
			t.Errorf("%v: delivered %d packets, want 1", scheme, len(r.received[10]))
		}
	}
}

func TestInOrderDelivery(t *testing.T) {
	for _, scheme := range Schemes {
		r := newRig(t, Config{Scheme: scheme}, phy.MCS(7, true))
		const n = 200
		for i := 0; i < n; i++ {
			p := dataPkt(10, 1500, 1)
			p.SeqNo = int64(i)
			r.ap.Input(p)
		}
		r.s.RunUntil(2 * sim.Second)
		got := r.received[10]
		if len(got) != n {
			t.Errorf("%v: delivered %d of %d", scheme, len(got), n)
			continue
		}
		for i, p := range got {
			if p.SeqNo != int64(i) {
				t.Errorf("%v: out of order at %d: seq %d", scheme, i, p.SeqNo)
				break
			}
		}
	}
}

func TestAggregationCaps(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.MCS(15, true), phy.MCS(0, true))
	// Saturate both stations.
	for i := 0; i < 500; i++ {
		r.ap.Input(dataPkt(10, 1500, 1))
		r.ap.Input(dataPkt(11, 1500, 2))
	}
	r.s.RunUntil(3 * sim.Second)
	fast := r.ap.Station(10)
	slow := r.ap.Station(11)
	if m := fast.MeanAggregation(); m < 20 || m > 32 {
		t.Errorf("fast mean aggregation = %.1f, want near the 32-frame cap", m)
	}
	// The 4 ms duration cap limits MCS0 to two 1500-byte frames.
	if m := slow.MeanAggregation(); m < 1.5 || m > 2.05 {
		t.Errorf("slow mean aggregation = %.1f, want ~2 (4 ms cap)", m)
	}
}

func TestVONotAggregated(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.MCS(15, true))
	for i := 0; i < 50; i++ {
		p := dataPkt(10, 200, 1)
		p.AC = pkt.ACVO
		r.ap.Input(p)
	}
	r.s.RunUntil(1 * sim.Second)
	sta := r.ap.Station(10)
	if m := sta.MeanAggregation(); m != 1 {
		t.Errorf("VO mean aggregation = %.2f, want exactly 1", m)
	}
	if len(r.received[10]) != 50 {
		t.Errorf("delivered %d of 50 VO frames", len(r.received[10]))
	}
}

func TestLegacyNotAggregated(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.Legacy(1))
	for i := 0; i < 10; i++ {
		r.ap.Input(dataPkt(10, 1500, 1))
	}
	r.s.RunUntil(2 * sim.Second)
	if m := r.ap.Station(10).MeanAggregation(); m != 1 {
		t.Errorf("legacy mean aggregation = %.2f, want 1", m)
	}
}

// TestPerformanceAnomalyFIFO: with round-robin TID service, a slow station
// must consume the bulk of the airtime (the §2.2 anomaly).
func TestPerformanceAnomalyFIFO(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFIFO}, phy.MCS(15, true), phy.MCS(0, true))
	stop1 := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(10, 1500, 1)) })
	stop2 := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(11, 1500, 2)) })
	r.s.RunUntil(5 * sim.Second)
	stop1()
	stop2()
	fast := r.ap.Station(10).Airtime().Seconds()
	slow := r.ap.Station(11).Airtime().Seconds()
	share := slow / (fast + slow)
	if share < 0.75 {
		t.Errorf("slow airtime share = %.2f, want > 0.75 (the anomaly)", share)
	}
}

// TestAirtimeFairnessScheme: same load under the airtime scheduler must
// equalise airtime.
func TestAirtimeFairnessScheme(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeAirtimeFQ}, phy.MCS(15, true), phy.MCS(0, true))
	stop1 := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(10, 1500, 1)) })
	stop2 := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(11, 1500, 2)) })
	r.s.RunUntil(5 * sim.Second)
	stop1()
	stop2()
	fast := r.ap.Station(10).Airtime().Seconds()
	slow := r.ap.Station(11).Airtime().Seconds()
	share := slow / (fast + slow)
	if share < 0.45 || share > 0.55 {
		t.Errorf("slow airtime share = %.2f, want ~0.5 under fairness", share)
	}
}

// TestPerMPDULossRetries: random MPDU loss must be repaired by the
// retry/block-ack path with in-order delivery preserved.
func TestPerMPDULossRetries(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC, PerMPDULoss: 0.2}, phy.MCS(7, true))
	const n = 300
	for i := 0; i < n; i++ {
		p := dataPkt(10, 1500, 1)
		p.SeqNo = int64(i)
		r.ap.Input(p)
	}
	r.s.RunUntil(5 * sim.Second)
	got := r.received[10]
	if len(got) != n {
		t.Fatalf("delivered %d of %d under 20%% MPDU loss", len(got), n)
	}
	for i, p := range got {
		if p.SeqNo != int64(i) {
			t.Fatalf("reorder buffer failed: position %d has seq %d", i, p.SeqNo)
		}
	}
	if r.ap.Station(10).TxPackets != n {
		t.Errorf("TxPackets = %d, want %d", r.ap.Station(10).TxPackets, n)
	}
}

// TestRetryLimitDrops: at 100% loss every MPDU must eventually be dropped
// once it exhausts the retry limit, and the node must not wedge.
func TestRetryLimitDrops(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC, PerMPDULoss: 1.0}, phy.MCS(7, true))
	for i := 0; i < 10; i++ {
		r.ap.Input(dataPkt(10, 1500, 1))
	}
	r.s.RunUntil(2 * sim.Second)
	if len(r.received[10]) != 0 {
		t.Fatal("packets delivered despite 100% loss")
	}
	if r.ap.RetryDrops != 10 {
		t.Errorf("RetryDrops = %d, want 10", r.ap.RetryDrops)
	}
	if queuedPackets(r.ap) != 0 {
		t.Errorf("%d packets stuck in queues", queuedPackets(r.ap))
	}
}

// TestUplinkAirtimeAccounting: frames the AP receives must be charged to
// the sending station.
func TestUplinkAirtimeAccounting(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeAirtimeFQ}, phy.MCS(7, true))
	sta := r.stas[0]
	for i := 0; i < 20; i++ {
		sta.Input(&pkt.Packet{Size: 1500, Proto: pkt.ProtoUDP, Src: 10, Dst: 1, Flow: 9, AC: pkt.ACBE})
	}
	r.s.RunUntil(1 * sim.Second)
	if len(r.received[1]) != 20 {
		t.Fatalf("AP received %d of 20", len(r.received[1]))
	}
	if r.ap.Station(10).RxAirtime == 0 {
		t.Error("RX airtime not accounted")
	}
}

// TestCollisionResolution: two stations transmitting simultaneously must
// both eventually deliver (binary exponential backoff resolves them).
func TestCollisionResolution(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFIFO}, phy.MCS(7, true), phy.MCS(7, true))
	for i := 0; i < 50; i++ {
		r.stas[0].Input(&pkt.Packet{Size: 1500, Proto: pkt.ProtoUDP, Src: 10, Dst: 1, Flow: 1, AC: pkt.ACBE})
		r.stas[1].Input(&pkt.Packet{Size: 1500, Proto: pkt.ProtoUDP, Src: 11, Dst: 1, Flow: 2, AC: pkt.ACBE})
	}
	r.s.RunUntil(3 * sim.Second)
	if len(r.received[1]) != 100 {
		t.Fatalf("AP received %d of 100", len(r.received[1]))
	}
	if r.env.Medium.Collisions == 0 {
		t.Log("note: no collisions occurred (possible but unlikely)")
	}
}

// TestMediumUtilisation: channel utilisation must stay high while
// a saturated station has data.
func TestMediumUtilisation(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.MCS(7, true))
	// Offer ~60 Mbps continuously so the BE queue never runs dry.
	stop := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(10, 1500, 1)) })
	r.s.RunUntil(1 * sim.Second)
	stop()
	util := r.env.Medium.BusyTime.Seconds()
	if util < 0.80 {
		t.Errorf("medium busy %.2f of 1s under saturation, want > 0.80", util)
	}
}

// TestNoOverlappingTransmissions: the medium never starts a transmission
// while one is on the air. The grant trampoline is wrapped to check, at
// every grant, that no transmission is active and the last one's end has
// passed. Traffic runs both ways, so stations contend and collide.
func TestNoOverlappingTransmissions(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFIFO},
		phy.MCS(15, true), phy.MCS(7, true), phy.MCS(0, true))
	m := r.env.Medium
	grant := m.grantCall
	fired := 0
	m.grantCall = func() {
		fired++
		if m.txActive || r.s.Now() < m.busyUntil {
			t.Fatalf("grant %d at %v while the medium is busy until %v (active %v)",
				fired, r.s.Now(), m.busyUntil, m.txActive)
		}
		grant()
	}
	stop := r.s.Ticker(500*sim.Microsecond, func() {
		for _, sta := range r.stas {
			r.ap.Input(dataPkt(sta.ID, 1500, 1))
			up := dataPkt(1, 1500, 2)
			up.Src = sta.ID
			sta.Input(up)
		}
	})
	r.s.RunUntil(2 * sim.Second)
	stop()
	if m.Grants < 100 || m.Collisions == 0 {
		t.Fatalf("%d grants, %d collisions: the stations did not contend", m.Grants, m.Collisions)
	}
}

// TestCodelParamsPerStation: AddStation gives a station the relaxed
// CoDel parameters exactly when its expected throughput at its fixed rate
// is below SlowRateThreshold, and the defaults otherwise (§3.1.1).
func TestCodelParamsPerStation(t *testing.T) {
	for _, tc := range []struct {
		rate      phy.Rate
		threshold float64 // SlowRateThreshold; 0 keeps the 12 Mbps default
		mbps      float64 // expected throughput, to 0.1 Mbps
		want      codel.Params
	}{
		{phy.MCS(15, true), 0, 132.2, codel.Default()},
		{phy.MCS(7, true), 0, 67.2, codel.Default()}, // scale and dense
		{phy.MCS(1, true), 0, 13.3, codel.Default()}, // nearest rate above 12 Mbps
		{phy.MCS(0, true), 0, 6.6, codel.Slow()},
		{phy.Legacy(1), 0, 0.9, codel.Slow()}, // scale's slow station
		{phy.MCS(1, true), 14e6, 13.3, codel.Slow()},
		{phy.MCS(0, true), 1, 6.6, codel.Default()}, // the ablation's setting
		{phy.Legacy(1), 1, 0.9, codel.Default()},
	} {
		r := newRig(t, Config{Scheme: SchemeFQMAC, SlowRateThreshold: tc.threshold}, tc.rate)
		sta := r.ap.Station(10)
		expect := phy.EffectiveRate(expectedAggr(sta.Rate, &r.ap.cfg), 1500, sta.Rate) / 1e6
		if math.Abs(expect-tc.mbps) > 0.05 {
			t.Errorf("%v: expected throughput %.2f Mbps, want %.1f", tc.rate, expect, tc.mbps)
		}
		if got := sta.codelPa; got != tc.want {
			t.Errorf("%v at threshold %g: params %+v, want %+v", tc.rate, tc.threshold, got, tc.want)
		}
	}
}

// TestSchemeWiring: every scheme builds its queue substrate — a PFIFO or
// an FQ-CoDel qdisc per AC over the driver FIFOs, or the integrated
// structure alone — and, per AC, its own station scheduler or none.
func TestSchemeWiring(t *testing.T) {
	q := sched.DefaultQuantum
	for _, tc := range []struct {
		scheme    Scheme
		substrate string
		sched     sched.StationScheduler // as a fresh one is built; nil for none
	}{
		{SchemeFIFO, "pfifo", nil},
		{SchemeFQCoDel, "fq-codel", nil},
		{SchemeFQMAC, "integrated", nil},
		{SchemeAirtimeFQ, "integrated", sched.NewAirtime(q, true)},
		{SchemeDTT, "integrated", sched.NewDTT(q)},
		{SchemeAirtimeRR, "integrated", sched.NewRoundRobin()},
		{SchemeWeightedAirtime, "integrated", sched.NewWeightedAirtime(q, true)},
	} {
		r := newRig(t, Config{Scheme: tc.scheme}, phy.MCS(7, true))
		substrate := "integrated"
		switch r.ap.Qdisc(pkt.ACBE).(type) {
		case *qdisc.PFIFO:
			substrate = "pfifo"
		case *mactid.Fq:
			substrate = "fq-codel"
		}
		if substrate != tc.substrate {
			t.Errorf("%v: substrate %s, want %s", tc.scheme, substrate, tc.substrate)
		}
		if (r.ap.FqStats() != nil) != (tc.substrate == "integrated") {
			t.Errorf("%v: integrated structure present = %v", tc.scheme, r.ap.FqStats() != nil)
		}
		for ac := range pkt.NumACs {
			got := r.ap.sched[ac]
			if !reflect.DeepEqual(got, tc.sched) {
				t.Errorf("%v: AC %d scheduler %#v, want %#v", tc.scheme, ac, got, tc.sched)
			}
			if got != nil && ac > 0 && got == r.ap.sched[ac-1] {
				t.Errorf("%v: ACs %d and %d share one scheduler", tc.scheme, ac-1, ac)
			}
		}
	}
}

// TestGlobalLimitFQMAC: overflowing the integrated structure drops from
// the longest queue, keeping total below its 8192-packet limit.
func TestGlobalLimitFQMAC(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.MCS(0, true))
	for i := 0; i < 9000; i++ {
		r.ap.Input(dataPkt(10, 1500, 1))
	}
	if got := r.ap.FqStats().Len(); got > 8192 {
		t.Errorf("fq len = %d, want <= 8192", got)
	}
	if r.ap.FqStats().OverlimitDrops() == 0 {
		t.Error("no overlimit drops recorded")
	}
}

// TestFQCoDelInputDrops: every packet an FQ-CoDel qdisc's global limit
// drops is an input drop with a trace event of its own bytes, as under
// the integrated structure, although the victim is the head of the
// longest flow and not the packet arriving.
func TestFQCoDelInputDrops(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQCoDel}, phy.MCS(0, true))
	r.ap.Trace = trace.NewLog(16)
	for i := 0; i < 12000; i++ {
		r.ap.Input(dataPkt(10, 1500, uint64(1+i%2)))
	}
	over := 0
	for ac := range pkt.NumACs {
		over += r.ap.Qdisc(pkt.AC(ac)).(interface{ OverlimitDrops() int }).OverlimitDrops()
	}
	if over == 0 {
		t.Fatal("the qdisc's limit never dropped; the test does not exercise it")
	}
	if r.ap.InputDrops != over {
		t.Errorf("InputDrops = %d, want the qdisc's %d overlimit drops", r.ap.InputDrops, over)
	}
	if got := r.ap.Trace.Count(trace.Drop); got != int64(over) {
		t.Errorf("%d drop trace events, want one per overlimit drop (%d)", got, over)
	}
	for _, e := range r.ap.Trace.Events() {
		if e.Kind == trace.Drop && (e.Note != "fq-overlimit" || e.Size != 1500 || e.Peer != 10) {
			t.Errorf("drop event %v, want an fq-overlimit drop of 1500 bytes to peer 10", e)
		}
	}
}

// TestDropTraceConservation: an AP under a saturating UDP download to
// three stations, with MPDU loss, traces one drop event per packet it
// drops, whatever the cause: a full PFIFO or an Fq's global limit at
// enqueue (InputDrops), CoDel at dequeue, or the retry limit.
func TestDropTraceConservation(t *testing.T) {
	for _, scheme := range Schemes {
		r := newRig(t, Config{Scheme: scheme, PerMPDULoss: 0.5},
			phy.MCS(15, true), phy.MCS(15, true), phy.MCS(0, true))
		r.ap.Trace = trace.NewLog(16)
		for i := range 3 {
			dst := pkt.NodeID(10 + i)
			// 1500-byte packets every 240 µs: 50 Mbps per station.
			r.s.Ticker(240*sim.Microsecond, func() { r.ap.Input(dataPkt(dst, 1500, uint64(1+i))) })
		}
		r.s.RunUntil(3 * sim.Second)
		codelDrops := 0
		if fq := r.ap.FqStats(); fq != nil {
			codelDrops = fq.CodelDrops()
		}
		for ac := range pkt.NumACs {
			if q, ok := r.ap.Qdisc(pkt.AC(ac)).(interface{ CodelDrops() int }); ok {
				codelDrops += q.CodelDrops()
			}
		}
		want := r.ap.InputDrops + codelDrops + r.ap.RetryDrops
		if got := r.ap.Trace.Count(trace.Drop); got != int64(want) {
			t.Errorf("%v: %d drop trace events, want %d (input %d + CoDel %d + retry %d)",
				scheme, got, want, r.ap.InputDrops, codelDrops, r.ap.RetryDrops)
		}
	}
}

// TestEDCAPriority: VO traffic must see lower latency than BK when both
// are saturated, thanks to shorter AIFS/CW.
func TestEDCAPriority(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.MCS(7, true))
	var voDelay, bkDelay sim.Time
	var voN, bkN int
	r.stas[0].Deliver = func(p *pkt.Packet) {
		d := r.s.Now() - p.Created
		if p.AC == pkt.ACVO {
			voDelay += d
			voN++
		} else {
			bkDelay += d
			bkN++
		}
	}
	stop := r.s.Ticker(500*sim.Microsecond, func() {
		bk := dataPkt(10, 1500, 1)
		bk.AC = pkt.ACBK
		bk.Created = r.s.Now()
		r.ap.Input(bk)
		vo := dataPkt(10, 200, 2)
		vo.AC = pkt.ACVO
		vo.Created = r.s.Now()
		r.ap.Input(vo)
	})
	r.s.RunUntil(2 * sim.Second)
	stop()
	if voN == 0 || bkN == 0 {
		t.Fatalf("vo=%d bk=%d deliveries", voN, bkN)
	}
	if voDelay/sim.Time(voN) >= bkDelay/sim.Time(bkN) {
		t.Errorf("VO mean delay %v >= BK %v", voDelay/sim.Time(voN), bkDelay/sim.Time(bkN))
	}
}

func TestEDCATable(t *testing.T) {
	if !EDCA(pkt.ACVO).NoAggr {
		t.Error("VO must not aggregate")
	}
	if EDCA(pkt.ACBE).NoAggr || EDCA(pkt.ACVI).NoAggr {
		t.Error("BE/VI must aggregate")
	}
	if EDCA(pkt.ACVO).AIFS() >= EDCA(pkt.ACBK).AIFS() {
		t.Error("VO AIFS must be shorter than BK")
	}
	if EDCA(pkt.ACVO).CWMin >= EDCA(pkt.ACBE).CWMin {
		t.Error("VO CWmin must be smaller than BE")
	}
}

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		SchemeFIFO: "FIFO", SchemeFQCoDel: "FQ-CoDel",
		SchemeFQMAC: "FQ-MAC", SchemeAirtimeFQ: "Airtime",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme stringer empty")
	}
}

func TestDuplicateStationPanics(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFIFO}, phy.MCS(7, true))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate AddStation")
		}
	}()
	r.ap.AddStation(r.stas[0], phy.MCS(7, true))
}

// TestStationIndex: peers associated in descending and gapped identifier
// order, growing the dense index at both ends, each resolve through
// Station and route; an unassociated identifier below, inside or above
// the index misses (and routes to the first peer, the default); and a
// second association of an identifier still panics.
func TestStationIndex(t *testing.T) {
	env := NewEnv(sim.New(1))
	ap := mustNode(t, env, 1, "ap", Config{Scheme: SchemeFQMAC})
	ids := []pkt.NodeID{500, 400, 403, 100, 90, 2000, 1000}
	var stas []*Station
	for _, id := range ids {
		peer := mustNode(t, env, id, "sta", Config{Scheme: SchemeFIFO})
		stas = append(stas, ap.AddStation(peer, phy.MCS(7, true)))
	}
	for i, id := range ids {
		if got := ap.Station(id); got != stas[i] {
			t.Errorf("Station(%d) = %p, want %p", id, got, stas[i])
		}
		if got := ap.route(dataPkt(id, 1500, 1)); got != stas[i] {
			t.Errorf("route to %d = %p, want %p", id, got, stas[i])
		}
	}
	for _, id := range []pkt.NodeID{-1000, 0, 89, 91, 401, 404, 999, 1999, 2001, 1 << 20} {
		if got := ap.Station(id); got != nil {
			t.Errorf("Station(%d) = %p for an unassociated identifier", id, got)
		}
		if got := ap.route(dataPkt(id, 1500, 1)); got != stas[0] {
			t.Errorf("route to unassociated %d = %p, want the default peer %p", id, got, stas[0])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a second association of identifier 403")
		}
	}()
	ap.AddStation(mustNode(t, env, 403, "again", Config{Scheme: SchemeFIFO}), phy.MCS(7, true))
}

// peerNodes builds n FIFO client nodes with identifiers from 10 up.
func peerNodes(t testing.TB, env *Env, n int) []*Node {
	peers := make([]*Node, n)
	for i := range peers {
		peers[i] = mustNode(t, env, pkt.NodeID(10+i), "sta", Config{Scheme: SchemeFIFO})
	}
	return peers
}

// TestAssociateAllocs: association allocates the Station, which holds
// its TIDs' transmit state and scheduler entries, plus one block of
// mactid TIDs at a node with the integrated structure. The node's own
// allocations and the amortised growth of its station slices are the
// rest of the per-station budget.
func TestAssociateAllocs(t *testing.T) {
	const stations = 1024
	rate := phy.MCS(7, true)
	env := NewEnv(sim.New(1))
	peers := peerNodes(t, env, stations)
	for _, scheme := range []Scheme{SchemeFIFO, SchemeFQCoDel, SchemeFQMAC, SchemeAirtimeFQ, SchemeDTT} {
		allocs := testing.AllocsPerRun(2, func() {
			ap := mustNode(t, env, 1, "ap", Config{Scheme: scheme})
			for _, peer := range peers {
				ap.AddStation(peer, rate)
			}
		})
		limit := 1.25
		if scheme >= SchemeFQMAC {
			limit = 2.25
		}
		if per := allocs / stations; per > limit {
			t.Errorf("%v: %.2f allocations per association, want at most %.2f", scheme, per, limit)
		}
	}
}

// BenchmarkAssociate measures association: one op is an Airtime AP
// associating 16,384 stations in identifier order, as exp.BuildWorld
// does. A per-association cost that grows with the station count makes
// the op time grow faster than the station count.
func BenchmarkAssociate(b *testing.B) {
	const stations = 1 << 14
	rate := phy.MCS(7, true)
	env := NewEnv(sim.New(1))
	peers := peerNodes(b, env, stations)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap := mustNode(b, env, 1, "ap", Config{Scheme: SchemeAirtimeFQ})
		for _, peer := range peers {
			ap.AddStation(peer, rate)
		}
	}
}

// TestConservationAcrossSchemes: inputs = delivered + dropped for every
// scheme under saturating load.
func TestConservationAcrossSchemes(t *testing.T) {
	for _, scheme := range Schemes {
		r := newRig(t, Config{Scheme: scheme}, phy.MCS(15, true), phy.MCS(0, true))
		const n = 3000
		for i := 0; i < n; i++ {
			r.ap.Input(dataPkt(10, 1500, 1))
			r.ap.Input(dataPkt(11, 1500, 2))
		}
		r.s.RunUntil(20 * sim.Second)
		delivered := len(r.received[10]) + len(r.received[11])
		queued := queuedPackets(r.ap)
		dropped := r.ap.InputDrops + r.ap.RetryDrops
		if fq := r.ap.FqStats(); fq != nil {
			// InputDrops counted overlimit drops already; add codel drops.
			dropped += fq.CodelDrops()
		} else {
			for _, ac := range []pkt.AC{pkt.ACBE} {
				if q, ok := r.ap.Qdisc(ac).(interface{ CodelDrops() int }); ok {
					dropped += q.CodelDrops()
				}
			}
		}
		if delivered+queued+dropped != 2*n {
			t.Errorf("%v: conservation violated: delivered=%d queued=%d dropped=%d of %d",
				scheme, delivered, queued, dropped, 2*n)
		}
	}
}

// TestLateJoiner: a station that associates mid-flood gets traffic, and
// neither it nor the stations already served wedge the scheduler or
// leave packets queued.
func TestLateJoiner(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFIFO, SchemeAirtimeFQ} {
		r := newRig(t, Config{Scheme: scheme}, phy.MCS(15, true), phy.MCS(0, true))
		stop1 := r.s.Ticker(300*sim.Microsecond, func() { r.ap.Input(dataPkt(10, 1500, 1)) })
		stop2 := r.s.Ticker(300*sim.Microsecond, func() { r.ap.Input(dataPkt(11, 1500, 2)) })
		r.s.RunUntil(1 * sim.Second)

		id := pkt.NodeID(30)
		sta := mustNode(t, r.env, id, "late", Config{Scheme: SchemeFIFO})
		sta.Deliver = func(p *pkt.Packet) { r.received[id] = append(r.received[id], p) }
		r.ap.AddStation(sta, phy.MCS(7, true))
		sta.AddStation(r.ap, phy.MCS(7, true))
		stop3 := r.s.Ticker(300*sim.Microsecond, func() { r.ap.Input(dataPkt(30, 1500, 3)) })
		r.s.RunUntil(2 * sim.Second)
		stop1()
		stop2()
		stop3()
		// The MCS0 station's backlog takes seconds of airtime to clear.
		r.s.RunUntil(20 * sim.Second)

		if len(r.received[30]) == 0 {
			t.Errorf("%v: late joiner received nothing", scheme)
		}
		if len(r.received[10]) == 0 || len(r.received[11]) == 0 {
			t.Errorf("%v: an early station starved", scheme)
		}
		if q := queuedPackets(r.ap); q != 0 {
			t.Errorf("%v: %d packets stuck after drain", scheme, q)
		}
	}
}

// TestInputWithoutPeerDrops: a node with no peer has no route, so a
// packet it is handed counts as an input drop instead of panicking.
func TestInputWithoutPeerDrops(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFIFO})
	r.ap.Input(&pkt.Packet{Size: 100, Proto: pkt.ProtoUDP, Src: 1, Dst: 10, AC: pkt.ACBE})
	if r.ap.InputDrops != 1 {
		t.Fatalf("InputDrops = %d, want the unroutable packet counted", r.ap.InputDrops)
	}
}

// TestRTSCTSProtection: with many low-rate uplink contenders, collisions
// waste whole 4 ms frames; RTS protection bounds the waste to the
// handshake, raising delivered goodput.
func TestRTSCTSProtection(t *testing.T) {
	run := func(thr sim.Time) (int64, int) {
		rates := []phy.Rate{phy.MCS(0, true), phy.MCS(0, true), phy.MCS(0, true),
			phy.MCS(0, true), phy.MCS(0, true), phy.MCS(0, true)}
		r := newRig(t, Config{Scheme: SchemeFQMAC}, rates...)
		for i, sta := range r.stas {
			sta := sta
			id := pkt.NodeID(10 + i)
			// Stations need RTS too: apply the same threshold.
			cfgSta := sta.Config()
			cfgSta.RTSThreshold = thr
			sta.cfg = cfgSta
			stop := r.s.Ticker(1500*sim.Microsecond, func() {
				sta.Input(&pkt.Packet{Size: 1500, Proto: pkt.ProtoUDP,
					Src: id, Dst: 1, Flow: uint64(id), AC: pkt.ACBE})
			})
			defer stop()
		}
		r.s.RunUntil(10 * sim.Second)
		return int64(len(r.received[1])), r.env.Medium.Collisions
	}
	plain, collPlain := run(0)
	protected, collProt := run(2 * sim.Millisecond)
	if collPlain == 0 || collProt == 0 {
		t.Skip("no collisions in this configuration")
	}
	if protected <= plain {
		t.Errorf("RTS protection did not help: %d delivered vs %d plain (collisions %d/%d)",
			protected, plain, collProt, collPlain)
	}
}

// TestRTSRetimedOnInPlaceRetry: when the retry limit drops MPDUs from a
// collided RTS-protected aggregate, the shortened frame that retries in
// place is timed again, protection included. It carries the RTS/CTS
// overhead exactly when it still exceeds the threshold.
func TestRTSRetimedOnInPlaceRetry(t *testing.T) {
	const thr = sim.Millisecond
	rate := phy.MCS(7, true)
	for _, tc := range []struct {
		name          string
		retried, kept int // MPDUs at the retry limit already, and fresh ones
		wantRTS       bool
	}{
		{"still long", 2, 8, true},
		{"now short", 8, 2, false},
	} {
		r := newRig(t, Config{Scheme: SchemeFQMAC, RTSThreshold: thr}, rate)
		ap := r.ap
		tid := &ap.Station(10).tids[pkt.ACBE]
		for i := 0; i < tc.retried+tc.kept; i++ {
			p := dataPkt(10, 1500, 1)
			if i < tc.retried {
				p.Retries = retryLimit
			}
			tid.retryq.Push(p)
		}
		agg := ap.buildAggregate(tid)
		if len(agg.Pkts) != tc.retried+tc.kept || !agg.UseRTS {
			t.Fatalf("%s: built %d MPDUs, UseRTS %v; want %d protected",
				tc.name, len(agg.Pkts), agg.UseRTS, tc.retried+tc.kept)
		}
		q := &ap.txqs[pkt.ACBE]
		q.hwq = append(q.hwq, agg)
		ap.txComplete(q, agg, true, agg.CollisionCost())

		if len(q.hwq) == 0 || q.hwq[0] != agg || len(agg.Pkts) != tc.kept {
			t.Fatalf("%s: the collided aggregate did not retry in place with %d MPDUs", tc.name, tc.kept)
		}
		if ap.RetryDrops != tc.retried {
			t.Fatalf("%s: RetryDrops = %d, want %d", tc.name, ap.RetryDrops, tc.retried)
		}
		bare := phy.DataDurBytes(tc.kept*mpduLen(1500, rate), rate) + phy.AckDur(rate)
		if (bare > thr) != tc.wantRTS {
			t.Fatalf("%s: a %v frame does not exercise the case", tc.name, bare)
		}
		want := bare
		if tc.wantRTS {
			want += phy.RTSCTSOverhead
		}
		if agg.UseRTS != tc.wantRTS || agg.TotalDur != want {
			t.Errorf("%s: retried frame UseRTS %v TotalDur %v, want %v and %v",
				tc.name, agg.UseRTS, agg.TotalDur, tc.wantRTS, want)
		}
	}
}

// TestRTSOnlyForLongFrames: short frames below the threshold must not pay
// the RTS overhead.
func TestRTSOnlyForLongFrames(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC, RTSThreshold: 2 * sim.Millisecond},
		phy.MCS(15, true))
	// A single 200-byte frame at MCS15 is far below 2 ms.
	r.ap.Input(dataPkt(10, 200, 1))
	r.s.RunUntil(50 * sim.Millisecond)
	sta := r.ap.Station(10)
	// Unprotected short frame: airtime well under the RTS overhead + data.
	if sta.TxAirtime > 300*sim.Microsecond {
		t.Errorf("short frame airtime %v suggests RTS was added", sta.TxAirtime)
	}
}
