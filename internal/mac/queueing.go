package mac

import (
	"repro/internal/codel"
	"repro/internal/mactid"
	"repro/internal/pkt"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Queueing selects a scheme's queue substrate: the layer between Input
// and aggregation where packets wait. The three values are the paper's
// configurations, a closed choice: a qdisc (PFIFO or FQ-CoDel) above
// unmanaged per-TID driver FIFOs sharing one buffer budget (Figure 2),
// and the integrated per-TID FQ-CoDel structure of §3.1 that replaces
// both layers. The zero value names no substrate.
type Queueing int

const (
	// PFIFOQueueing is the unmodified stack: a PFIFO qdisc above the
	// driver FIFOs.
	PFIFOQueueing Queueing = iota + 1
	// FQCoDelQueueing is the second baseline: an FQ-CoDel qdisc above
	// the (still unmanaged) driver FIFOs.
	FQCoDelQueueing
	// IntegratedQueueing is the §3.1 structure: the qdisc layer is
	// bypassed and every TID queues in one shared mactid.Fq.
	IntegratedQueueing
)

// qdiscLayer is the upper layer of the qdisc substrates, the stock
// transmit path of Figure 2: a qdisc per access category feeding the
// per-TID driver FIFOs (tidState.bufq), which share one buffer budget.
// The unmanaged lower-layer queueing is what defeats qdisc-level AQM in
// the paper's baseline measurements.
type qdiscLayer struct {
	pfifo     [pkt.NumACs]qdisc.PFIFO // the qdiscs at a PFIFO node
	fqc       *[pkt.NumACs]fqCoDel    // the qdiscs at an FQ-CoDel node, else nil
	driverLen int                     // packets held in driver buf_q across all TIDs
	refilling bool                    // guards the cross-AC refill against recursion

	// busy holds one bit per AC: set by every enqueue to that AC's
	// qdisc, cleared when its Dequeue returns nil. A clear bit means
	// the qdisc is empty, and refilling it is skipped. That is exact:
	// an empty PFIFO pops nil, and FQ-CoDel (a mactid.TID) returns nil
	// only once its new and old flow lists are empty, after which a
	// further Dequeue changes no CoDel state or deficit.
	busy uint8
}

// fqCoDel is one access category's FQ-CoDel qdisc (RFC 8290): a
// mactid.Fq at Linux fq_codel's packet limit, seen through its single
// TID and run under codel.Default(), as Linux fq_codel is out of the box.
type fqCoDel struct {
	fq  *mactid.Fq
	tid mactid.TID
}

// fqCoDelLimit is Linux fq_codel's default packet limit (the integrated
// structure's is mactid's 8192).
const fqCoDelLimit = 10240

// initQueueing builds the node's substrate for q. Packets a mactid.Fq
// drops (CoDel or overlimit) are released through its drop hook.
func (n *Node) initQueueing(q Queueing) {
	switch q {
	case IntegratedQueueing:
		n.fq = mactid.New(mactid.Config{DropHook: n.freePkt})
	case FQCoDelQueueing:
		n.qd = &qdiscLayer{fqc: new([pkt.NumACs]fqCoDel)}
		hook := n.freePkt
		for ac := range n.qd.fqc {
			f := &n.qd.fqc[ac]
			f.fq = mactid.New(mactid.Config{Limit: fqCoDelLimit, DropHook: hook})
			f.fq.InitTID(&f.tid)
		}
	default:
		n.qd = new(qdiscLayer)
	}
}

// dropInput records packets the substrate dropped at input: count is
// added to InputDrops and one drop trace event of the given size is
// emitted.
func (n *Node) dropInput(dst pkt.NodeID, ac pkt.AC, size int, note string, count int) {
	n.InputDrops += count
	n.trace(trace.Drop, dst, ac, size, note)
}

// enqueue accepts a packet routed to TID t: into the shared structure
// under the integrated substrate, into its AC's qdisc otherwise (the
// driver FIFOs are then topped up from there).
//
//hj17:hotpath
func (n *Node) enqueue(t *tidState, p *pkt.Packet, now sim.Time) {
	q := n.qd
	if q == nil {
		n.enqueueFq(n.fq, t.fq, p, now)
		return
	}
	ac := p.AC
	q.busy |= 1 << ac
	if f := q.fqc; f != nil {
		n.enqueueFq(f[ac].fq, &f[ac].tid, p, now)
	} else if !q.pfifo[ac].Enqueue(p) {
		// PFIFO rejects without storing.
		n.dropInput(p.Dst, ac, p.Size, "qdisc-full", 1)
		n.freePkt(p)
	}
	n.refill(ac)
}

// enqueueFq enqueues p into tid, a TID of fq, and records the packets
// fq's global limit dropped meanwhile, p itself possibly among them, as
// input drops.
//
//hj17:hotpath
func (n *Node) enqueueFq(fq *mactid.Fq, tid *mactid.TID, p *pkt.Packet, now sim.Time) {
	ac, dst := p.AC, p.Dst // p may be dropped (and released) below
	before := fq.Drops()
	tid.Enqueue(p, now)
	if d := fq.Drops() - before; d > 0 {
		n.dropInput(dst, ac, d, "fq-overlimit", d)
	}
}

// refillAC drains one AC's qdisc into the driver FIFOs while the shared
// driver buffer has room, reporting the packets pulled. An AC whose busy
// bit is clear holds nothing and returns at once.
//
//hj17:hotpath
func (n *Node) refillAC(ac pkt.AC) int {
	q := n.qd
	if q.busy&(1<<ac) == 0 {
		return 0
	}
	f, now := q.fqc, n.env.Sim.Now()
	pulled := 0
	for q.driverLen < driverBuf {
		var p *pkt.Packet
		if f != nil {
			p = f[ac].tid.Dequeue(now, codel.Default())
		} else {
			p = q.pfifo[ac].Dequeue()
		}
		if p == nil {
			q.busy &^= 1 << ac
			break
		}
		sta := n.route(p)
		if sta == nil {
			n.freePkt(p)
			continue
		}
		sta.tids[ac].bufq.Push(p)
		q.driverLen++
		pulled++
	}
	return pulled
}

// refill drains the requested AC's qdisc into the per-TID driver queues
// while the shared driver buffer has room, then opportunistically tops
// up the other access categories — the driver pulls from every qdisc
// whenever buffer space frees, so a backlogged AC must not strand in its
// qdisc just because its own traffic went quiet. An AC that gains
// packets this way is kicked so its hardware queue fills. The cross-AC
// pass runs only when another AC's busy bit is set, so with a single
// active AC it costs nothing. The integrated substrate has nothing above
// its TID queues, so there refill does nothing.
//
//hj17:hotpath
func (n *Node) refill(ac pkt.AC) {
	q := n.qd
	if q == nil {
		return
	}
	n.refillAC(ac)
	if q.refilling || q.busy&^(1<<ac) == 0 {
		return
	}
	q.refilling = true
	for o := pkt.AC(0); o < pkt.NumACs; o++ {
		if o != ac && n.refillAC(o) > 0 {
			n.schedule(o)
		}
	}
	q.refilling = false
}
