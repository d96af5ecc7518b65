package mac

import (
	"repro/internal/pkt"
	"repro/internal/sim"
)

// reorderKey identifies one block-ack reorder session.
type reorderKey struct {
	src pkt.NodeID
	tid int
}

// reorderState is the receive-side block-ack reorder buffer for one
// (transmitter, TID) pair. 802.11 receivers deliver MPDUs to the upper
// layers in sequence-number order, buffering holes until the transmitter's
// retries arrive or the hole times out (the transmitter gave up).
type reorderState struct {
	next    int // next expected sequence number
	buf     map[int]*pkt.Packet
	timer   sim.EventRef
	started bool
	holeSeq int      // the sequence number the buffer is blocked on
	holeAt  sim.Time // when that hole appeared
}

// reorderDeliver runs arriving packets through the session's reorder
// buffer, invoking the node's Deliver hook for each packet released in
// order.
func (n *Node) reorderDeliver(key reorderKey, pkts []*pkt.Packet) {
	rs := n.reorder[key]
	if rs == nil {
		rs = &reorderState{buf: make(map[int]*pkt.Packet), holeSeq: -1}
		n.reorder[key] = rs
	}
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
	deadline := rs.holeAt + reorderTimeout
	wait := deadline - now
	if wait < 0 {
		wait = 0
	}
	rs.timer = n.env.Sim.After(wait, func() {
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
			n.reorderFlush(rs)
		}
		n.reorderArm(rs)
	})
}
