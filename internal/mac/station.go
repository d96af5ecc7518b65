package mac

import (
	"repro/internal/codel"
	"repro/internal/mactid"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Station is a node's view of one wireless peer: for the access point, one
// per associated client; for a client, the single entry describing the AP.
// It carries the per-TID queues, the airtime-scheduler entries, the
// per-station CoDel parameters (§3.1.1) and the per-station statistics the
// evaluation reports.
type Station struct {
	Peer *Node    // the remote node
	Rate phy.Rate // PHY rate used for frames to/from this peer, fixed at AddStation

	tids [pkt.NumACs]tidState

	// reorder holds the owner's block-ack reorder sessions for frames
	// received from this peer, one per access category, each built on
	// its first aggregate (Node.reorderSession).
	reorder [pkt.NumACs]*reorderState

	// ack is the block-ack duration at Rate (phy.AckDur). maxBytes is
	// the framed-byte cap of an aggregate: maxAggrBytes, or the
	// MaxAggrDur cap as a byte threshold when that binds first
	// (phy.FitBytes). Both are set once by AddStation.
	ack      sim.Time
	maxBytes int

	// codelPa are the §3.1.1 CoDel parameters of the station's queues,
	// chosen once by AddStation (codelParamsFor).
	codelPa codel.Params

	// Stats, maintained by the owner node.
	TxAirtime   sim.Time // airtime of transmissions to this peer (incl. retries)
	RxAirtime   sim.Time // airtime of transmissions received from this peer
	TxBytes     int64    // L3 bytes successfully delivered to this peer
	TxPackets   int64
	DropPackets int64 // MPDUs that exhausted their retry limit
	AggCount    int64 // aggregates transmitted
	AggPackets  int64 // MPDUs across those aggregates
}

// Airtime returns the total airtime attributed to the peer (TX + RX), the
// quantity Figures 5, 6 and 9 are computed over.
func (s *Station) Airtime() sim.Time { return s.TxAirtime + s.RxAirtime }

// MeanAggregation returns the mean A-MPDU size in packets, the "Aggr size"
// column of Table 1.
func (s *Station) MeanAggregation() float64 {
	if s.AggCount == 0 {
		return 0
	}
	return float64(s.AggPackets) / float64(s.AggCount)
}

// codelParamsFor implements §3.1.1 for a station at rate r: the
// 50 ms/300 ms parameters when its expected throughput, the effective
// rate at a typical aggregation level, is below cfg.SlowRateThreshold,
// the defaults otherwise.
func codelParamsFor(r phy.Rate, cfg *Config) codel.Params {
	if phy.EffectiveRate(expectedAggr(r, cfg), 1500, r) < cfg.SlowRateThreshold {
		return codel.Slow()
	}
	return codel.Default()
}

// expectedAggr estimates the aggregation level a saturated station reaches
// at rate r: the most full-size MPDUs that fit the duration cap.
func expectedAggr(r phy.Rate, cfg *Config) int {
	if r.Legacy {
		return 1
	}
	n := 1
	for n < maxAggrFrames {
		if phy.DataDur(n+1, 1500, r) > cfg.MaxAggrDur {
			break
		}
		n++
	}
	return n
}

// tidState is the per-(station, TID) transmit state at a node, held in
// its Station. One TID per access category is modelled (packets map to
// TIDs by their DiffServ-derived AC, as in the paper).
type tidState struct {
	// Entry is the TID's handle in the scheme's station scheduler, with
	// the tidState as its Owner; the unscheduled schemes leave it idle.
	sched.Entry

	sta *Station
	ac  pkt.AC

	// The TID's queue within the node's substrate: the driver FIFO
	// (buf_q of Figure 2) under the qdisc substrates, where fq is nil;
	// under the integrated substrate bufq stays empty and fq is the
	// TID's view of the shared structure, in its station's block of
	// TIDs (AddStation).
	bufq pkt.Queue
	fq   *mactid.TID

	// All modes: MPDUs awaiting retransmission (retry_q of Figure 2).
	retryq pkt.Queue

	// txSeq numbers MPDUs for the receiver's block-ack reorder buffer.
	// Sequence numbers are assigned at first aggregation (§3.1: encodings
	// sensitive to reordering are applied on dequeue).
	txSeq int
}

// Backlogged reports whether the TID can contribute packets to an
// aggregate right now. It implements sched.Owner.
func (t *tidState) Backlogged() bool {
	return !t.retryq.Empty() || !t.bufq.Empty() || (t.fq != nil && t.fq.Backlogged())
}

// pop removes the next packet of TID t for aggregation, consulting the
// retry queue first, then the TID's substrate queue.
func (n *Node) pop(t *tidState, now sim.Time) *pkt.Packet {
	if p := t.retryq.Pop(); p != nil {
		return p
	}
	if t.fq != nil {
		return t.fq.Dequeue(now, t.sta.codelPa)
	}
	p := t.bufq.Pop()
	if p != nil {
		n.qd.driverLen--
	}
	return p
}

// Aggregate is one built A-MPDU (or single MPDU for VO/legacy) awaiting
// transmission in a hardware queue. Each MPDU carries one packet, as in
// the §2.2.1 model, and is lost or delivered on its own. It is sent at
// its station's fixed rate (TID.sta.Rate).
//
// Aggregates are recycled through a per-node free list (Node.getAggregate
// / Node.putAggregate) and keep their slice capacity across reuses, so
// steady-state aggregation allocates nothing.
type Aggregate struct {
	Pkts       []*pkt.Packet
	TID        *tidState
	FrameBytes int      // framed body length (sum of MPDU lengths)
	DataDur    sim.Time // Tphy + body air time
	TotalDur   sim.Time // DataDur + SIFS + block ack, plus RTS/CTS if protected
	UseRTS     bool     // protected by an RTS/CTS exchange
	Built      sim.Time // when the aggregate was submitted to hardware
}

// reset clears the aggregate for reuse, retaining slice capacity.
func (a *Aggregate) reset() {
	for i := range a.Pkts {
		a.Pkts[i] = nil
	}
	*a = Aggregate{Pkts: a.Pkts[:0]}
}

// CollisionCost is the channel time a failed transmission of this
// aggregate occupies: the whole frame normally, only the RTS exchange
// when protected.
func (a *Aggregate) CollisionCost() sim.Time {
	if a.UseRTS {
		return phy.RTSDur
	}
	return a.TotalDur
}

// buildAggregate pulls packets from t into a new aggregate, respecting the
// frame-count, byte and air-duration caps. It returns nil if the TID had
// nothing to send. The 4 ms duration cap is what limits a 6.5 Mbps station
// to two-frame aggregates, matching Table 1's measured 1.89 mean.
//
//hj17:hotpath
func (n *Node) buildAggregate(t *tidState) *Aggregate {
	now := n.env.Sim.Now()
	sta := t.sta
	rate := sta.Rate
	maxFrames := maxAggrFrames
	if EDCA(t.ac).NoAggr || rate.Legacy {
		maxFrames = 1
	}

	agg := n.getAggregate()
	agg.TID, agg.Built = t, now
	for len(agg.Pkts) < maxFrames {
		p := n.pop(t, now)
		if p == nil {
			break
		}
		newBytes := agg.FrameBytes + mpduLen(p.Size, rate)
		if len(agg.Pkts) > 0 && newBytes > sta.maxBytes {
			// Does not fit: return it for the next aggregate.
			t.retryq.PushFront(p)
			break
		}
		if p.MacSeq == 0 {
			t.txSeq++
			p.MacSeq = t.txSeq
		}
		agg.Pkts = append(agg.Pkts, p)
		agg.FrameBytes = newBytes
		// Under the qdisc substrates the driver refills its buffer as it
		// drains, preserving the shared-space dynamics of Figure 2; the
		// integrated substrate has nothing to refill.
		n.refill(t.ac)
	}
	if len(agg.Pkts) == 0 {
		n.putAggregate(agg)
		return nil
	}
	agg.setTiming(sta, n.cfg.RTSThreshold)
	return agg
}

// setTiming sets the air durations of the aggregate's FrameBytes at
// sta's rate, block ack included, and decides RTS/CTS protection: an
// exchange is added exactly when the unprotected frame exceeds a positive
// rtsThreshold. Building an aggregate and rebuilding a shortened retry
// both time the frame here.
func (a *Aggregate) setTiming(sta *Station, rtsThreshold sim.Time) {
	a.DataDur = phy.DataDurBytes(a.FrameBytes, sta.Rate)
	a.TotalDur = a.DataDur + sta.ack
	a.UseRTS = rtsThreshold > 0 && a.TotalDur > rtsThreshold
	if a.UseRTS {
		a.TotalDur += phy.RTSCTSOverhead
	}
}

// mpduLen returns the framed length of one MPDU body at the given rate.
func mpduLen(size int, r phy.Rate) int {
	if r.Legacy {
		return size + phy.LMac + phy.LFCS
	}
	return phy.MPDULen(size)
}
