// Package mac models the 802.11n MAC layer and the Linux WiFi transmit
// path it hosts: EDCA channel access over a shared medium, A-MPDU
// aggregation with block acknowledgement and retries, and a two-deep
// hardware queue per access category.
//
// A scheme (Scheme, one of a closed set of seven) pairs one of the
// paper's three queue substrates — a PFIFO or FQ-CoDel qdisc over driver
// FIFOs, or the integrated §3.1 structure — with an optional station
// scheduler (sched.StationScheduler). The set holds the five
// configurations the paper evaluates and two ablations.
package mac

import (
	"fmt"
	"strings"

	"repro/internal/mactid"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/qdisc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterises a node's MAC and queueing behaviour. The zero value
// is completed with the defaults used throughout the paper's testbed.
type Config struct {
	Scheme Scheme

	// BSS tags the node with its basic-service-set index in a multi-BSS
	// world (exp.BuildWorld): the shared medium accounts channel
	// occupancy under this identity. Single-AP setups leave it 0.
	BSS int

	MaxAggrDur sim.Time // A-MPDU cap in air time (default 4 ms, ath9k)

	AirtimeQuantum sim.Time // airtime scheduler quantum (default 300 µs)
	DisableSparse  bool     // turn off the sparse-station optimisation

	SlowRateThreshold float64 // bits/s under which CoDel relaxes (default 12 Mbps)

	// RTSThreshold protects transmissions longer than this with RTS/CTS
	// (adds the exchange overhead, bounds the collision cost). Zero
	// disables protection.
	RTSThreshold sim.Time

	PerMPDULoss float64 // independent MPDU loss probability on the air
}

// Fixed parameters of the modelled ath9k transmit path.
const (
	maxAggrFrames = 32    // A-MPDU cap in MPDUs
	maxAggrBytes  = 65535 // A-MPDU cap in framed bytes
	hwQueueDepth  = 2     // aggregates queued to hardware
	driverBuf     = 128   // shared driver buffer budget in packets
	retryLimit    = 10    // MPDU retransmission limit

	// reorderTimeout bounds how long the receive-side reorder buffer
	// holds a given hole before releasing, matching mac80211's 100 ms
	// block-ack reorder-buffer timeout. It must exceed the worst-case
	// time for a retried MPDU to rejoin a later aggregate and transmit.
	reorderTimeout = 100 * sim.Millisecond
)

func (c *Config) fill() {
	if c.MaxAggrDur <= 0 {
		c.MaxAggrDur = 4 * sim.Millisecond
	}
	if c.AirtimeQuantum <= 0 {
		c.AirtimeQuantum = sched.DefaultQuantum
	}
	if c.SlowRateThreshold <= 0 {
		c.SlowRateThreshold = 12e6
	}
}

// Env is the shared wireless environment of one simulation: the virtual
// clock and the radio medium.
type Env struct {
	Sim    *sim.Sim
	Medium *Medium
}

// NewEnv creates an environment on the given simulator.
func NewEnv(s *sim.Sim) *Env {
	return &Env{Sim: s, Medium: NewMedium(s)}
}

// Node is one 802.11 device: the access point or a client station.
type Node struct {
	ID   pkt.NodeID
	Name string

	env *Env
	cfg Config

	// The scheme's queue substrate, one of which is nil: the qdisc layer
	// above the driver FIFOs, or the integrated per-TID structure.
	qd *qdiscLayer
	fq *mactid.Fq
	// enqueueing is set while a mactid.Fq enqueues, so dropFq can tell
	// the global limit's drops from CoDel's.
	enqueueing bool

	sched [pkt.NumACs]sched.StationScheduler // nil for the unscheduled schemes

	stationOrder []*Station
	defaultPeer  *Station

	// staLow/staSlice index stations by identifier offset:
	// staSlice[id-staLow] is the peer with identifier id, or nil. Every
	// station is in it, and AddStation grows it at either end. Station
	// identifiers cluster inside one BSS window (a client has one peer),
	// so the span stays close to the station count.
	staLow   pkt.NodeID
	staSlice []*Station

	// rrIdx is, per AC, the stationOrder index the unscheduled schemes'
	// round-robin tries first.
	rrIdx [pkt.NumACs]int

	txqs [pkt.NumACs]txq

	// pool is the world's packet pool; the node releases packets it
	// terminates (drops at enqueue, retry-limit drops) into it.
	pool *pkt.Pool
	// aggFree recycles Aggregate shells.
	aggFree []*Aggregate

	// Deliver receives every packet that arrives over the air for this
	// node's upper layers. Must be set before traffic flows.
	Deliver func(*pkt.Packet)

	// Trace, when non-nil, records packet lifecycle events.
	Trace *trace.Log

	// Stats.
	RetryDrops   int // MPDUs dropped after exhausting retries
	InputPackets int64
	InputDrops   int // packets dropped at enqueue (qdisc/global limit)
}

// NewNode creates a node with the given queueing scheme and attaches it to
// the environment's medium. A Scheme value outside the set is an error.
func NewNode(env *Env, id pkt.NodeID, name string, cfg Config) (*Node, error) {
	if !cfg.Scheme.valid() {
		return nil, fmt.Errorf("mac: unknown scheme %v (have %s)",
			cfg.Scheme, strings.Join(SchemeNames(), ", "))
	}
	cfg.fill()
	n := &Node{ID: id, Name: name, env: env, cfg: cfg, pool: pkt.PoolOf(env.Sim)}
	for ac := range n.txqs {
		n.txqs[ac] = txq{node: n, ac: pkt.AC(ac), par: EDCA(pkt.AC(ac)), bss: cfg.BSS}
		n.txqs[ac].resetCW()
	}
	n.initQueueing()
	for ac := range n.sched {
		n.sched[ac] = newScheduler(&n.cfg)
	}
	return n, nil
}

// freePkt releases a packet the node terminated back to the world pool.
//
//hj17:owns
//hj17:hotpath
func (n *Node) freePkt(p *pkt.Packet) { n.pool.Put(p) }

// getAggregate pops a recycled aggregate shell or allocates a fresh one.
func (n *Node) getAggregate() *Aggregate {
	if k := len(n.aggFree); k > 0 {
		a := n.aggFree[k-1]
		n.aggFree[k-1] = nil
		n.aggFree = n.aggFree[:k-1]
		return a
	}
	return &Aggregate{}
}

// putAggregate resets a retired aggregate and returns it to the free
// list. The caller must be done with every field — the shell may be
// reused by the very next buildAggregate.
func (n *Node) putAggregate(a *Aggregate) {
	a.reset()
	n.aggFree = append(n.aggFree, a)
}

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// FqStats exposes the integrated queue structure (nil unless the node's
// substrate is the integrated per-TID FQ-CoDel structure; an FQ-CoDel
// node's qdiscs are reached through Qdisc).
func (n *Node) FqStats() *mactid.Fq { return n.fq }

// Qdisc exposes the qdisc of an access category for its counters: a
// *qdisc.PFIFO at a PFIFO node, and at an FQ-CoDel node that AC's
// one-TID *mactid.Fq, whose CodelDrops and OverlimitDrops split its
// drops. It is nil under the integrated substrate.
func (n *Node) Qdisc(ac pkt.AC) qdisc.Qdisc {
	switch {
	case n.qd == nil:
		return nil
	case n.qd.fqc != nil:
		return n.qd.fqc[ac].fq
	}
	return &n.qd.pfifo[ac]
}

// AddStation registers a wireless peer reachable at the given PHY rate and
// returns its per-peer state. The rate, and with it the peer's §3.1.1
// CoDel parameters, stay fixed for the node's lifetime: there is no rate
// control. The first peer added becomes the default next hop for packets
// whose destination is not a direct peer (i.e. a client's AP).
func (n *Node) AddStation(peer *Node, rate phy.Rate) *Station {
	if n.lookupStation(peer.ID) != nil {
		panic(fmt.Sprintf("mac: duplicate station %v", peer.ID))
	}
	s := &Station{Peer: peer, Rate: rate,
		ack:      phy.AckDur(rate),
		maxBytes: min(maxAggrBytes, phy.FitBytes(rate, n.cfg.MaxAggrDur)),
		codelPa:  codelParamsFor(rate, &n.cfg)}
	var fq *[pkt.NumACs]mactid.TID
	if n.fq != nil {
		fq = new([pkt.NumACs]mactid.TID)
	}
	for ac := range s.tids {
		t := &s.tids[ac]
		t.sta, t.ac, t.Owner = s, pkt.AC(ac), t
		if fq != nil {
			t.fq = &fq[ac]
			n.fq.InitTID(t.fq)
		}
	}
	n.stationOrder = append(n.stationOrder, s)
	n.indexStation(s)
	if n.defaultPeer == nil {
		n.defaultPeer = s
	}
	return s
}

// Stations returns the node's peers in registration order.
func (n *Node) Stations() []*Station { return n.stationOrder }

// Station returns the peer entry for id, or nil.
func (n *Node) Station(id pkt.NodeID) *Station { return n.lookupStation(id) }

// SetStationWeight sets the station's relative airtime weight (0 or 1 =
// the default equal share; see sched.CheckWeight for the bound). It sets
// sched.Entry.Weight on every access category's entry, which only the
// weighted airtime scheduler reads (Weighted-Airtime); the paper's
// schemes ignore it.
func (n *Node) SetStationWeight(s *Station, weight float64) {
	for ac := range s.tids {
		s.tids[ac].Weight = weight
	}
}

// indexStation enters s into the dense index, growing it at either end
// to cover s's identifier. Growth downwards at least doubles the span,
// so associating in descending identifier order stays linear overall,
// as appending does upwards.
func (n *Node) indexStation(s *Station) {
	id := s.Peer.ID
	if len(n.staSlice) == 0 {
		n.staLow = id
	}
	if id < n.staLow {
		grow := max(int(n.staLow-id), len(n.staSlice))
		idx := make([]*Station, grow+len(n.staSlice))
		copy(idx[grow:], n.staSlice)
		n.staSlice, n.staLow = idx, n.staLow-pkt.NodeID(grow)
	}
	for len(n.staSlice) <= int(id-n.staLow) {
		n.staSlice = append(n.staSlice, nil)
	}
	n.staSlice[id-n.staLow] = s
}

// lookupStation returns the peer entry for id, or nil.
func (n *Node) lookupStation(id pkt.NodeID) *Station {
	if d := int(id - n.staLow); d >= 0 && d < len(n.staSlice) {
		return n.staSlice[d]
	}
	return nil
}

// route finds the peer entry a packet should be transmitted to: its
// destination if directly associated, otherwise the default peer (the AP).
func (n *Node) route(p *pkt.Packet) *Station {
	if s := n.lookupStation(p.Dst); s != nil {
		return s
	}
	return n.defaultPeer
}

// Input accepts a packet from the node's upper layers (for the AP: from
// the wired port; for a client: from its local applications) and enqueues
// it for wireless transmission.
func (n *Node) Input(p *pkt.Packet) {
	n.InputPackets++
	sta := n.route(p)
	if sta == nil {
		n.InputDrops++
		n.trace(trace.Drop, p.Dst, p.AC, p.Size, "no-route")
		n.freePkt(p)
		return
	}
	n.trace(trace.Enqueue, p.Dst, p.AC, p.Size, "")
	ac := p.AC
	tid := &sta.tids[ac]
	now := n.env.Sim.Now()

	n.enqueue(tid, p, now)
	if sc := n.sched[ac]; sc != nil {
		sc.Activate(&tid.Entry)
	}
	n.schedule(ac)
}

// schedule fills the access category's hardware queue with aggregates and
// requests channel access when anything is pending. This is the schedule()
// entry point of Algorithm 3, also used (with round-robin TID selection)
// by the baseline schemes.
//
//hj17:hotpath
func (n *Node) schedule(ac pkt.AC) {
	q := &n.txqs[ac]
	for len(q.hwq) < hwQueueDepth {
		agg := n.nextAggregate(ac)
		if agg == nil {
			break
		}
		q.hwq = append(q.hwq, agg)
	}
	if len(q.hwq) > 0 {
		n.env.Medium.request(q)
	}
}

// nextAggregate picks the TID to serve — via the scheme's station
// scheduler or round-robin — and builds one aggregate from it.
//
//hj17:hotpath
func (n *Node) nextAggregate(ac pkt.AC) *Aggregate {
	if sc := n.sched[ac]; sc != nil {
		for {
			e := sc.Next()
			if e == nil {
				return nil
			}
			if agg := n.buildAggregate(e.Owner.(*tidState)); agg != nil {
				return agg
			}
		}
	}
	n.refill(ac)
	stas := n.stationOrder
	for i := range stas {
		idx := (n.rrIdx[ac] + i) % len(stas)
		t := &stas[idx].tids[ac]
		if !t.Backlogged() {
			continue
		}
		n.rrIdx[ac] = (idx + 1) % len(stas)
		if agg := n.buildAggregate(t); agg != nil {
			return agg
		}
	}
	return nil
}

// txComplete finishes one air transmission of agg: per-MPDU success is
// resolved (all fail on a collision), airtime is accounted and charged,
// failures are handled, and the hardware queue is refilled.
//
// A fully failed aggregate (collision: no block ack) is retried in place
// at the head of the hardware queue, as ath9k does — this keeps MPDU order
// intact. Individually lost MPDUs go to the TID retry queue and rejoin the
// next aggregate; the receiver's block-ack reorder buffer restores their
// order.
//
//hj17:hotpath
func (n *Node) txComplete(q *txq, agg *Aggregate, collided bool, occupied sim.Time) {
	if len(q.hwq) == 0 || q.hwq[0] != agg {
		panic("mac: txComplete out of order")
	}
	sta := agg.TID.sta
	sta.TxAirtime += occupied
	sta.AggCount++
	sta.AggPackets += int64(len(agg.Pkts))
	if n.Trace != nil {
		note := "ok"
		if collided {
			note = "collision"
		}
		n.trace(trace.TxDone, sta.Peer.ID, q.ac, len(agg.Pkts), note)
	}
	if sc := n.sched[q.ac]; sc != nil {
		sc.ChargeTx(&agg.TID.Entry, occupied, n.env.Sim.Now()-agg.Built)
	}

	if collided {
		q.bumpCW()
		keep := agg.Pkts[:0]
		for _, p := range agg.Pkts {
			p.Retries++
			if p.Retries > retryLimit {
				n.dropMPDU(sta, p)
				continue
			}
			keep = append(keep, p)
		}
		dropped := len(keep) < len(agg.Pkts)
		for i := len(keep); i < len(agg.Pkts); i++ {
			agg.Pkts[i] = nil
		}
		agg.Pkts = keep
		if len(agg.Pkts) > 0 {
			// Retry in place, staying at the head of the hardware queue.
			// Only if the retry limit removed packets does the frame need
			// retiming, protection included: the shorter frame may fall
			// under the RTS threshold.
			if dropped {
				agg.FrameBytes = 0
				for _, p := range agg.Pkts {
					agg.FrameBytes += mpduLen(p.Size, sta.Rate)
				}
				agg.setTiming(sta, n.cfg.RTSThreshold)
			}
			n.schedule(q.ac)
			return
		}
		q.popHW()
		n.putAggregate(agg)
		n.schedule(q.ac)
		return
	}

	q.popHW()
	// Per-MPDU success: each MPDU is lost independently with the
	// configured PerMPDULoss, whatever its rate. One pass draws each
	// MPDU's fate in aggregate order (no draw when nothing can be lost)
	// and compacts the delivered MPDUs in place at the front of agg.Pkts;
	// the lost ones go to the retry queue or are dropped.
	succProb := 1 - n.cfg.PerMPDULoss
	rng := n.env.Sim.Rand()
	delivered := agg.Pkts[:0]
	var bytes int64
	for _, p := range agg.Pkts {
		if succProb >= 1 || rng.Float64() < succProb {
			bytes += int64(p.Size)
			delivered = append(delivered, p)
			continue
		}
		n.retryMPDU(agg.TID, p)
	}
	lost := len(agg.Pkts) - len(delivered)
	sta.TxBytes += bytes
	sta.TxPackets += int64(len(delivered))
	if lost > 0 {
		q.bumpCW()
	} else {
		q.resetCW()
	}
	if sc := n.sched[q.ac]; sc != nil && agg.TID.Backlogged() {
		sc.Activate(&agg.TID.Entry)
	}
	if len(delivered) > 0 {
		sta.Peer.receiveAggregate(n, q.ac, delivered, agg.TotalDur)
	}
	// The receiver read the delivered MPDUs straight from agg.Pkts, so
	// the shell is recycled only now that delivery has returned.
	n.putAggregate(agg)
	n.schedule(q.ac)
}

// retryMPDU requeues an MPDU lost on the air for the TID's next
// aggregate, or drops it once it has exhausted the retry limit.
//
//hj17:owns
func (n *Node) retryMPDU(t *tidState, p *pkt.Packet) {
	p.Retries++
	if p.Retries > retryLimit {
		n.dropMPDU(t.sta, p)
		return
	}
	t.retryq.Push(p)
}

// dropMPDU releases an MPDU that exhausted its retry limit.
//
//hj17:owns
func (n *Node) dropMPDU(sta *Station, p *pkt.Packet) {
	n.RetryDrops++
	sta.DropPackets++
	if n.Trace != nil {
		n.trace(trace.Drop, sta.Peer.ID, p.AC, p.Size, "retry-limit")
	}
	n.freePkt(p)
}

// receiveAggregate handles an aggregate arriving over the air: received
// airtime is attributed (and, under the airtime scheme, charged) to the
// sending peer, and packets are handed to the upper layers through the
// sender's reorder session. Frames only travel between associated
// peers, so a sender without a Station entry is a model bug.
//
//hj17:hotpath
func (n *Node) receiveAggregate(from *Node, ac pkt.AC, pkts []*pkt.Packet, dur sim.Time) {
	sta := n.lookupStation(from.ID)
	if sta == nil {
		panic(fmt.Sprintf("mac: node %s received from unassociated node %s", n.Name, from.Name))
	}
	sta.RxAirtime += dur
	if sc := n.sched[ac]; sc != nil {
		sc.ChargeRx(&sta.tids[ac].Entry, dur)
	}
	if n.Deliver == nil {
		panic(fmt.Sprintf("mac: node %s has no Deliver hook", n.Name))
	}
	if n.Trace != nil {
		for _, p := range pkts {
			n.trace(trace.Deliver, from.ID, ac, p.Size, "")
		}
	}
	n.reorderDeliver(n.reorderSession(sta, ac), pkts)
}

// trace records an event when tracing is attached.
func (n *Node) trace(kind trace.Kind, peer pkt.NodeID, ac pkt.AC, size int, note string) {
	if n.Trace == nil {
		return
	}
	n.Trace.Add(trace.Event{
		At: n.env.Sim.Now(), Kind: kind, Node: n.ID, Peer: peer,
		AC: ac, Size: size, Note: note,
	})
}
