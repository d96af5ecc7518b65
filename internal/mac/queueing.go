package mac

import (
	"repro/internal/codel"
	"repro/internal/mactid"
	"repro/internal/pkt"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/trace"
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

// initQueueing builds the substrate of the node's scheme: a PFIFO qdisc
// layer under FIFO, an FQ-CoDel one under FQ-CoDel, and the integrated
// structure under the other five. Packets a mactid.Fq drops (CoDel or
// overlimit) reach dropFq through its drop hook.
func (n *Node) initQueueing() {
	switch n.cfg.Scheme {
	case SchemeFIFO:
		n.qd = new(qdiscLayer)
	case SchemeFQCoDel:
		n.qd = &qdiscLayer{fqc: new([pkt.NumACs]fqCoDel)}
		hook := n.dropFq
		for ac := range n.qd.fqc {
			f := &n.qd.fqc[ac]
			f.fq = mactid.New(mactid.Config{Limit: fqCoDelLimit, DropHook: hook})
			f.fq.InitTID(&f.tid)
		}
	default:
		n.fq = mactid.New(mactid.Config{DropHook: n.dropFq})
	}
}

// dropFq releases a packet a mactid.Fq dropped and traces it: a drop by
// the global limit while enqueueing is an input drop, any other is
// CoDel's at dequeue.
//
//hj17:owns
func (n *Node) dropFq(p *pkt.Packet) {
	note := "codel"
	if n.enqueueing {
		n.InputDrops++
		note = "fq-overlimit"
	}
	if n.Trace != nil {
		n.trace(trace.Drop, p.Dst, p.AC, p.Size, note)
	}
	n.freePkt(p)
}

// enqueue accepts a packet routed to TID t: into the shared structure
// under the integrated substrate, into its AC's qdisc otherwise (the
// driver FIFOs are then topped up from there).
//
//hj17:hotpath
func (n *Node) enqueue(t *tidState, p *pkt.Packet, now sim.Time) {
	q := n.qd
	if q == nil {
		n.enqueueFq(t.fq, p, now)
		return
	}
	ac := p.AC
	q.busy |= 1 << ac
	if f := q.fqc; f != nil {
		n.enqueueFq(&f[ac].tid, p, now)
	} else if !q.pfifo[ac].Enqueue(p) {
		// PFIFO rejects without storing.
		n.InputDrops++
		n.trace(trace.Drop, p.Dst, ac, p.Size, "qdisc-full")
		n.freePkt(p)
	}
	n.refill(ac)
}

// enqueueFq enqueues p into tid, a TID of a mactid.Fq. The packets the
// Fq's global limit drops meanwhile, p itself possibly among them, reach
// dropFq as input drops.
//
//hj17:hotpath
func (n *Node) enqueueFq(tid *mactid.TID, p *pkt.Packet, now sim.Time) {
	n.enqueueing = true
	tid.Enqueue(p, now)
	n.enqueueing = false
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
