package mac

import (
	"repro/internal/pkt"
	"repro/internal/sim"
)

// reorderState is the receive-side block-ack reorder buffer for one
// (transmitter, TID) pair. 802.11 receivers deliver MPDUs to the upper
// layers in sequence-number order, buffering holes until the transmitter's
// retries arrive or the hole times out (the transmitter gave up). The
// receiver keeps it on its Station entry for the transmitter
// (Station.reorder), one per access category.
type reorderState struct {
	n       *Node // the receiver
	next    int   // next expected sequence number
	buf     map[int]*pkt.Packet
	timer   sim.EventRef
	started bool
	holeSeq int      // the sequence number the buffer is blocked on
	holeAt  sim.Time // when that hole appeared
}

// reorderSession returns the receiver's reorder session for frames from
// sta on ac, building it on the session's first aggregate.
func (n *Node) reorderSession(sta *Station, ac pkt.AC) *reorderState {
	rs := sta.reorder[ac]
	if rs == nil {
		rs = &reorderState{n: n, buf: make(map[int]*pkt.Packet), holeSeq: -1}
		sta.reorder[ac] = rs
	}
	return rs
}

// reorderDeliver runs arriving packets through the session's reorder
// buffer, invoking the node's Deliver hook for each packet released in
// order.
//
//hj17:hotpath
func (n *Node) reorderDeliver(rs *reorderState, pkts []*pkt.Packet) {
	for _, p := range pkts {
		switch {
		case !rs.started || p.MacSeq == rs.next:
			rs.started = true
			n.Deliver(p)
			rs.next = p.MacSeq + 1
		case p.MacSeq < rs.next:
			// A late retry that raced the hole timeout; deliver rather
			// than drop so transports see at-least-once arrival.
			n.Deliver(p)
		default:
			rs.buf[p.MacSeq] = p
		}
	}
	n.reorderFlush(rs)
	n.reorderArm(rs)
}

// reorderFlush releases contiguous buffered packets.
//
//hj17:hotpath
func (n *Node) reorderFlush(rs *reorderState) {
	for {
		p, ok := rs.buf[rs.next]
		if !ok {
			return
		}
		delete(rs.buf, rs.next)
		n.Deliver(p)
		rs.next = p.MacSeq + 1
	}
}

// reorderArm manages the per-hole timeout: when the buffer is blocked on a
// missing sequence number for longer than reorderTimeout, the hole is
// skipped (its transmitter exhausted its retries).
//
//hj17:hotpath
func (n *Node) reorderArm(rs *reorderState) {
	if len(rs.buf) == 0 {
		rs.holeSeq = -1
		if rs.timer.Valid() {
			n.env.Sim.Cancel(rs.timer)
			rs.timer = sim.EventRef{}
		}
		return
	}
	now := n.env.Sim.Now()
	if rs.holeSeq != rs.next {
		// A new hole: restart its age and its timer.
		rs.holeSeq = rs.next
		rs.holeAt = now
		if rs.timer.Valid() {
			n.env.Sim.Cancel(rs.timer)
			rs.timer = sim.EventRef{}
		}
	}
	if rs.timer.Valid() {
		return
	}
	rs.timer = n.env.Sim.AfterCall(rs.holeAt+reorderTimeout-now, reorderFire, rs)
}

// reorderFire is the hole timer's trampoline.
//
//hj17:hotpath
func reorderFire(v any) {
	rs := v.(*reorderState)
	rs.timer = sim.EventRef{}
	if len(rs.buf) == 0 {
		return
	}
	if rs.holeSeq == rs.next {
		// Still blocked on the timed-out hole: skip to the smallest
		// buffered sequence number and release what follows.
		lowest := -1
		for s := range rs.buf {
			if lowest < 0 || s < lowest {
				lowest = s
			}
		}
		rs.next = lowest
		rs.n.reorderFlush(rs)
	}
	rs.n.reorderArm(rs)
}
