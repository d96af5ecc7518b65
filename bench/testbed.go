package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// testbedSchemes are the paper's five transmit-path schemes, the worlds
// of one testbed pass.
var testbedSchemes = []string{"FIFO", "FQ-CoDel", "FQ-MAC", "Airtime", "DTT"}

// udpRateBps is each station's downstream UDP load (150 Mbps offered in
// all, well past what the slow station lets the channel carry).
const udpRateBps = 50e6

// world is one assembled testbed: the paper's two fast stations and one
// slow one behind an AP, with its load attached.
type world struct {
	scheme string
	n      *exp.Net
	conns  []*tcp.Conn
}

func buildWorld(name string, scheme mac.Scheme, seed uint64, tcpLoad bool) *world {
	n := exp.NewNet(exp.NetConfig{Seed: seed, Scheme: scheme, Stations: exp.DefaultStations()})
	w := &world{scheme: name, n: n}
	for _, st := range n.Stations {
		if tcpLoad {
			w.conns = append(w.conns, n.DownloadTCP(st, pkt.ACBE))
		} else {
			n.DownloadUDP(st, udpRateBps, pkt.ACBE)
		}
	}
	n.Ping(n.Stations[0], 0, 1)
	return w
}

// worldCounters are a world's exported layer counters, by name.
type worldCounters map[string]int64

// counters reads the exported counters of every layer of a world that
// has run.
func (w *world) counters() worldCounters {
	n := w.n
	c := make(worldCounters)
	nodes := []*mac.Node{n.AP}
	for _, st := range n.Stations {
		nodes = append(nodes, st.Node)
		c["agg_count"] += st.APView.AggCount
		c["agg_packets"] += st.APView.AggPackets
	}
	for _, nd := range nodes {
		c["packets"] += nd.InputPackets
		c["input_drops"] += int64(nd.InputDrops)
		c["retry_drops"] += int64(nd.RetryDrops)
	}
	c["events"] = int64(n.Sim.EventsRun())
	c["pending"] = int64(n.Sim.Pending())
	ps := pkt.PoolOf(n.Sim).Stats()
	c["pool_gets"], c["pool_news"], c["pool_live"] = ps.Gets, ps.News, ps.Live()
	med := n.Env.Medium
	c["grants"], c["collisions"], c["busy_ns"] = int64(med.Grants), int64(med.Collisions), int64(med.BusyTime)
	if fq := n.AP.FqStats(); fq != nil {
		c["mactid_codel_drops"] = int64(fq.CodelDrops())
		c["mactid_overlimit_drops"] = int64(fq.OverlimitDrops())
		c["mactid_sparse_dequeues"] = int64(fq.SparseDequeues())
	}
	for ac := 0; ac < pkt.NumACs; ac++ {
		if q, ok := n.AP.Qdisc(pkt.AC(ac)).(interface {
			CodelDrops() int
			OverlimitDrops() int
		}); ok {
			c["fqcodel_codel_drops"] += int64(q.CodelDrops())
			c["fqcodel_overlimit_drops"] += int64(q.OverlimitDrops())
		}
	}
	for _, conn := range w.conns {
		c["tcp_sent"] += conn.Client().SentSegs
		c["tcp_retransmits"] += conn.Client().Retransmits
		c["tcp_timeouts"] += conn.Client().Timeouts
	}
	return c
}

// check reports what is wrong with a world's counters after its run: it
// must have carried traffic and kept its packet accounting consistent.
func (c worldCounters) check() error {
	switch {
	case c["packets"] <= 0 || c["events"] <= 0 || c["grants"] <= 0:
		return fmt.Errorf("no traffic (packets %d, events %d, grants %d)", c["packets"], c["events"], c["grants"])
	case c["pool_live"] < 0 || c["pool_news"] > c["pool_gets"]:
		return fmt.Errorf("pool accounting broken (%d live, %d news of %d gets)", c["pool_live"], c["pool_news"], c["pool_gets"])
	case c["input_drops"] > c["packets"]:
		return fmt.Errorf("%d input drops of %d packets", c["input_drops"], c["packets"])
	}
	return nil
}

// runTestbed measures udp-flood or tcp-download: each pass assembles the
// five schemes' worlds (seeded seed+pass, in an order rotated each pass),
// then runs each for the workload's simulated time.
func runTestbed(c config, m *measurement, tcpLoad bool) error {
	dur := 20 * sim.Second
	if tcpLoad {
		dur = 30 * sim.Second
	}
	if c.tiny {
		dur = 2 * sim.Second
	}
	schemes := make([]mac.Scheme, len(testbedSchemes))
	for i, name := range testbedSchemes {
		s, err := exp.ParseScheme(name)
		if err != nil {
			return err
		}
		schemes[i] = s
	}
	var prof *profiler
	if c.traced {
		p, err := startProfiler(c.work)
		if err != nil {
			return err
		}
		prof = p
	}

	var setupMs, heapKB, gcs, pauses []float64
	perScheme := make(map[string][]float64)
	var pass0 worldCounters
	var ops, runAllocs float64
	c.eachPass(func(p int) {
		seed := c.seed + uint64(p)
		worlds := make([]*world, len(schemes))
		var setup, setupRaw float64
		heap0 := liveHeap()
		for k := range schemes {
			i := (k + p) % len(schemes)
			secs, raw := m.setup(func() {
				inPhase(c.traced, "setup", func() {
					worlds[k] = buildWorld(testbedSchemes[i], schemes[i], seed, tcpLoad)
				})
			})
			setup += secs
			setupRaw += raw
			setupMs = append(setupMs, secs*1e3)
		}
		heapKB = append(heapKB, (liveHeap()-heap0)/1024/float64(len(worlds)))
		m.setupSample(setup, setupRaw)

		var wall time.Duration
		var allocs, gc, pause float64
		from := time.Now()
		sum := make(worldCounters)
		var pkts int64
		for k, w := range worlds {
			runtime.GC()
			m.probe.tick()
			var mem memDelta
			mem.start()
			prof.sampleAllocs(true)
			t := time.Now()
			inPhase(c.traced, "run", func() { w.n.Run(dur) }, "scheme", w.scheme)
			d := time.Since(t)
			prof.sampleAllocs(false)
			mem.stop()
			worlds[k] = nil

			m.Attempted++
			wc := w.counters()
			if err := wc.check(); err != nil {
				m.fail(1, "pass %d %s: %v", p, w.scheme, err)
			}
			for name, v := range wc {
				sum[name] += v
			}
			wall += d
			allocs += mem.mallocs()
			gc += mem.gcs()
			pause += mem.pauseMs()
			pkts += wc["packets"]
			perScheme[w.scheme] = append(perScheme[w.scheme], ratio(float64(d), float64(wc["packets"])))
		}
		n := float64(pkts)
		ops += n
		runAllocs += allocs
		m.pass(from, wall, n, allocs)
		gcs = append(gcs, gc)
		pauses = append(pauses, pause)
		if p == 0 {
			pass0 = sum
		}
	})

	blob, err := json.Marshal(pass0)
	if err != nil {
		return err
	}
	m.Digest = string(blob)
	if c.traced {
		return prof.layerMetrics(m.Layer, ops, ratio(runAllocs, ops))
	}

	pk := float64(pass0["packets"])
	worldsRun := float64(len(schemes))
	m.Layer["exp.setup_ms.p50"] = median(setupMs)
	m.Layer["exp.world_heap_kb"] = median(heapKB)
	m.Layer["sim.events_per_pkt"] = ratio(float64(pass0["events"]), pk)
	m.Layer["pkt.pool_reuse_ratio"] = ratio(float64(pass0["pool_gets"]-pass0["pool_news"]), float64(pass0["pool_gets"]))
	m.Layer["pkt.live_end"] = float64(pass0["pool_live"])
	m.Layer["mac.collision_ratio"] = ratio(float64(pass0["collisions"]), float64(pass0["grants"]+pass0["collisions"]))
	m.Layer["mac.mpdus_per_aggr"] = ratio(float64(pass0["agg_packets"]), float64(pass0["agg_count"]))
	m.Layer["mac.busy_frac"] = ratio(float64(pass0["busy_ns"]), float64(dur)*worldsRun)
	m.Layer["mac.retry_drops"] = float64(pass0["retry_drops"])
	m.Layer["queue.input_drop_ratio"] = ratio(float64(pass0["input_drops"]), pk)
	m.Layer["mactid.codel_drops"] = float64(pass0["mactid_codel_drops"])
	m.Layer["mactid.overlimit_drops"] = float64(pass0["mactid_overlimit_drops"])
	m.Layer["mactid.sparse_dequeues"] = float64(pass0["mactid_sparse_dequeues"])
	m.Layer["fqcodel.codel_drops"] = float64(pass0["fqcodel_codel_drops"])
	m.Layer["fqcodel.overlimit_drops"] = float64(pass0["fqcodel_overlimit_drops"])
	m.Layer["tcp.retx_ratio"] = ratio(float64(pass0["tcp_retransmits"]), float64(pass0["tcp_sent"]))
	m.Layer["tcp.timeouts"] = float64(pass0["tcp_timeouts"])
	m.Layer["gc.cycles"] = median(gcs)
	m.Layer["gc.pause_ms"] = median(pauses)
	for name, xs := range perScheme {
		m.Layer["scheme."+strings.ToLower(name)+".ns_per_op"] = median(xs)
	}
	return nil
}
