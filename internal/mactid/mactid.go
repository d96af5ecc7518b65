// Package mactid implements the paper's integrated 802.11 queueing
// structure (§3.1, Algorithms 1 and 2): the FQ-CoDel-derived design that
// replaces both the qdisc layer and the driver's per-TID FIFOs.
//
// Unlike a stock FQ-CoDel instance per TID (which would be impractical),
// one fixed, global set of flow queues is shared by every TID on the
// interface. A packet hashes to a queue; the queue is then bound to the
// packet's TID. On a hash collision with a queue already bound to another
// TID, the packet goes to the TID's dedicated overflow queue. A global
// packet limit is enforced by dropping from the globally longest queue,
// which prevents a single flow (or a slow station) from locking out the
// rest of the interface — the behaviour responsible for the aggregation
// collapse the paper describes in §4.1.2.
//
// With a single TID no packet ever takes an overflow queue, and the
// structure is the FQ-CoDel queueing discipline of RFC 8290 step for
// step: the MAC builds its FQ-CoDel qdisc baseline as one such Fq per
// access category.
package mactid

import (
	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Config parameterises the shared queueing structure.
type Config struct {
	Flows    int // global number of flow queues, a power of two (default 1024)
	Limit    int // global packet limit (default 8192, the paper's figure 3)
	DropHook func(*pkt.Packet)
}

// quantum is the DRR quantum in bytes: one full-size Ethernet frame, the
// Linux fq_codel default.
const quantum = 1514

func (c *Config) fill() {
	if c.Flows <= 0 {
		c.Flows = 1024
	}
	if c.Limit <= 0 {
		c.Limit = 8192
	}
	if c.DropHook == nil {
		// A no-op hook keeps the drop path unconditional, so packet
		// ownership is discharged on every branch (and pktown can prove
		// it) without a nil check per drop.
		c.DropHook = func(*pkt.Packet) {}
	}
}

type listID uint8

const (
	listNone listID = iota
	listNew
	listOld
)

// queue is one flow queue, possibly bound to a TID.
type queue struct {
	q       pkt.Queue
	cv      codel.Vars
	deficit int
	tid     *TID // nil when unbound
	next    *queue
	inList  listID
	// idx is the queue's global scan position (hash queues first, then
	// overflow queues in InitTID order); occPos its slot in the
	// occupied heap, -1 while empty. The over-limit policy reads the heap
	// root, with idx preserving the full scan's first-longest
	// tie-breaking.
	idx    int
	occPos int
}

type queueList struct {
	head, tail *queue
}

func (l *queueList) empty() bool { return l.head == nil }

func (l *queueList) pushTail(q *queue, id listID) {
	q.next = nil
	q.inList = id
	if l.tail == nil {
		l.head = q
	} else {
		l.tail.next = q
	}
	l.tail = q
}

func (l *queueList) popHead() *queue {
	q := l.head
	if q == nil {
		return nil
	}
	l.head = q.next
	if l.head == nil {
		l.tail = nil
	}
	q.next = nil
	q.inList = listNone
	return q
}

// Fq is the interface-wide shared queueing structure. All TIDs of all
// stations on one interface share a single Fq.
type Fq struct {
	cfg Config
	// flows is the hash-queue table, built by the first Enqueue: many
	// structures (FQ-CoDel's per-AC qdiscs outside BE) never see a
	// packet, and a world is built per campaign run.
	flows []queue
	// tids counts the TIDs set up on the structure (InitTID); their
	// overflow queues are numbered after the hash queues in that order.
	tids int
	// occupied is a binary max-heap of the queues currently holding
	// bytes, ordered by (bytes desc, idx asc) — a total order, so the
	// root is exactly the queue a full first-longest-wins scan would
	// pick. Dense worlds keep hundreds of flows backlogged while the
	// global limit is pinned; the heap makes the per-enqueue victim
	// lookup O(log n) instead of O(n).
	occupied []*queue
	// pending is the one queue whose heap position may be stale: byte
	// changes on it are folded into a single sift at the next heap read
	// (or when a different queue changes). Aggregation drains one queue
	// many packets at a time, so deferring exactly one queue batches the
	// whole drain. A queue must be made pending (occDefer) before its
	// bytes change, never after: the flush of the previous pending queue
	// then sifts through a heap in which every other key is current.
	pending *queue
	// flowMask maps a flow key to its hash queue: Flows is a power of
	// two, so k & (Flows-1) == k % Flows.
	flowMask uint64
	len      int

	drops      int
	codelDrops int
	overDrops  int
	collisions int // packets routed to an overflow queue
	sparseHits int
}

// New creates the shared structure. It panics if cfg.Flows is not a
// power of two.
func New(cfg Config) *Fq {
	cfg.fill()
	if cfg.Flows&(cfg.Flows-1) != 0 {
		panic("mactid: Config.Flows must be a power of two")
	}
	return &Fq{
		cfg:      cfg,
		flowMask: uint64(cfg.Flows - 1),
		// Backlogged queues are few even under saturation; a small
		// starting capacity keeps steady-state occupancy tracking
		// allocation-free.
		occupied: make([]*queue, 0, 16),
	}
}

// buildFlows allocates the hash-queue table on first use.
func (fq *Fq) buildFlows() {
	fq.flows = make([]queue, fq.cfg.Flows)
	for i := range fq.flows {
		fq.flows[i].idx = i
		fq.flows[i].occPos = -1
	}
}

// Len reports the total packets queued across all TIDs.
func (fq *Fq) Len() int { return fq.len }

// Drops reports total packets dropped (AQM + overlimit).
func (fq *Fq) Drops() int { return fq.drops }

// CodelDrops reports packets dropped by the CoDel control law.
func (fq *Fq) CodelDrops() int { return fq.codelDrops }

// OverlimitDrops reports packets dropped by the global limit.
func (fq *Fq) OverlimitDrops() int { return fq.overDrops }

// SparseDequeues reports packets served from new-queue (sparse) lists.
func (fq *Fq) SparseDequeues() int { return fq.sparseHits }

// InitTID sets up t, which the caller holds, as a TID view onto the
// shared structure. The MAC sets up one per (station, traffic
// identifier). t must not be copied afterwards: the structure's queues
// point into it.
func (fq *Fq) InitTID(t *TID) {
	*t = TID{fq: fq, overflowQ: queue{idx: fq.cfg.Flows + fq.tids, occPos: -1}}
	fq.tids++
}

// drop takes ownership of a packet leaving the structure by drop and
// hands it to the (always non-nil) DropHook for release.
//
//hj17:owns
//hj17:hotpath
func (fq *Fq) drop(p *pkt.Packet) {
	fq.drops++
	fq.cfg.DropHook(p)
}

// occAbove reports whether a outranks b in the occupied heap: more
// bytes, or equal bytes at a lower scan position. idx is unique, so
// this is a strict total order and the heap root is the unique queue a
// first-longest-wins scan over every queue would pick.
func occAbove(a, b *queue) bool {
	ab, bb := a.q.Bytes(), b.q.Bytes()
	return ab > bb || (ab == bb && a.idx < b.idx)
}

//hj17:hotpath
func (fq *Fq) occSiftUp(i int) {
	h := fq.occupied
	for i > 0 {
		par := (i - 1) / 2
		if !occAbove(h[i], h[par]) {
			return
		}
		h[i], h[par] = h[par], h[i]
		h[i].occPos, h[par].occPos = i, par
		i = par
	}
}

//hj17:hotpath
func (fq *Fq) occSiftDown(i int) {
	h := fq.occupied
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && occAbove(h[r], h[child]) {
			child = r
		}
		if !occAbove(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		h[i].occPos, h[child].occPos = i, child
		i = child
	}
}

// occUpdate keeps q's membership and position in the occupied heap in
// step with its byte count. It assumes every other queue's key is
// current; occDefer and occFlush are its only callers.
//
//hj17:hotpath
func (fq *Fq) occUpdate(q *queue) {
	if q.q.Bytes() > 0 {
		i := q.occPos
		if i < 0 {
			i = len(fq.occupied)
			q.occPos = i
			fq.occupied = append(fq.occupied, q)
		}
		fq.occSiftUp(i)
		fq.occSiftDown(q.occPos)
		return
	}
	if q.occPos >= 0 {
		i := q.occPos
		last := len(fq.occupied) - 1
		moved := fq.occupied[last]
		fq.occupied[i] = moved
		moved.occPos = i
		fq.occupied[last] = nil
		fq.occupied = fq.occupied[:last]
		q.occPos = -1
		if i < last {
			fq.occSiftUp(i)
			fq.occSiftDown(moved.occPos)
		}
	}
}

// occDefer records that q's byte count is about to change, deferring
// the heap maintenance until the next read. Only one queue may be
// pending, so marking a different queue flushes the previous one first;
// call it before touching q.q, while q's heap key is still current.
//
//hj17:hotpath
func (fq *Fq) occDefer(q *queue) {
	if fq.pending == q {
		return
	}
	if fq.pending != nil {
		fq.occUpdate(fq.pending)
	}
	fq.pending = q
}

// occFlush settles the pending queue into the heap before a read.
//
//hj17:hotpath
func (fq *Fq) occFlush() {
	if fq.pending != nil {
		fq.occUpdate(fq.pending)
		fq.pending = nil
	}
}

// longestQueue returns the queue (hash or overflow) holding the most
// bytes — the occupied heap's root — or nil when every queue is empty.
// Ties resolve to the lowest scan position, matching a
// first-longest-wins scan over every queue.
//
//hj17:hotpath
func (fq *Fq) longestQueue() *queue {
	fq.occFlush()
	if len(fq.occupied) == 0 {
		return nil
	}
	return fq.occupied[0]
}

// dropFromLongest implements the global-limit policy: drop the head packet
// of the globally longest queue (Algorithm 1 lines 2-4). It reports the
// dropped packet.
//
//hj17:hotpath
func (fq *Fq) dropFromLongest() *pkt.Packet {
	victim := fq.longestQueue()
	if victim == nil {
		return nil
	}
	fq.occDefer(victim)
	p := victim.q.Pop()
	if p == nil {
		return nil
	}
	fq.len--
	if victim.tid != nil {
		victim.tid.len--
	}
	fq.overDrops++
	fq.drop(p)
	return p
}

// TID is the per-traffic-identifier view: the new/old scheduling lists and
// the overflow queue (Algorithm 1 line 7).
type TID struct {
	fq         *Fq
	newQ, oldQ queueList
	overflowQ  queue
	len        int
}

// Len reports packets queued for this TID.
func (t *TID) Len() int { return t.len }

// Backlogged reports whether the TID has any packet to send.
func (t *TID) Backlogged() bool { return t.len > 0 }

// Enqueue implements Algorithm 1. The packet is timestamped at now for
// CoDel, hashed to a queue (or the overflow queue on a cross-TID
// collision) and the queue activated onto the new-queues list if needed.
// It reports false if the global limit caused this very packet to drop.
//
//hj17:hotpath
func (t *TID) Enqueue(p *pkt.Packet, now sim.Time) bool {
	fq := t.fq
	accepted := true
	if fq.flows == nil {
		fq.buildFlows()
	}
	q := &fq.flows[p.FlowKey()&fq.flowMask]
	if q.tid != nil && q.tid != t {
		q = &t.overflowQ
		fq.collisions++
	}
	q.tid = t
	p.Enqueued = now
	fq.occDefer(q)
	q.q.Push(p)
	fq.len++
	t.len++
	if q.inList == listNone {
		q.deficit = quantum
		t.newQ.pushTail(q, listNew)
	}
	for fq.len > fq.cfg.Limit {
		dp := fq.dropFromLongest()
		if dp == nil {
			break
		}
		if dp == p {
			accepted = false
		}
	}
	return accepted
}

// Dequeue implements Algorithm 2, pulling the next packet for this TID
// under the supplied CoDel parameters (per-station, per §3.1.1).
//
//hj17:hotpath
func (t *TID) Dequeue(now sim.Time, pa codel.Params) *pkt.Packet {
	fq := t.fq
	for {
		var q *queue
		fromNew := false
		if !t.newQ.empty() {
			q = t.newQ.head
			fromNew = true
		} else if !t.oldQ.empty() {
			q = t.oldQ.head
		} else {
			return nil
		}
		if q.deficit <= 0 {
			q.deficit += quantum
			if fromNew {
				t.newQ.popHead()
			} else {
				t.oldQ.popHead()
			}
			t.oldQ.pushTail(q, listOld)
			continue
		}
		fq.occDefer(q)
		// CoDel hands the packets it drops straight to the drop hook;
		// the counters follow from its drop count.
		codelDrops := q.cv.LastDropCount
		p := q.cv.Dequeue(&q.q, pa, now, fq.cfg.DropHook)
		if d := q.cv.LastDropCount - codelDrops; d > 0 {
			fq.len -= d
			t.len -= d
			fq.codelDrops += d
			fq.drops += d
		}
		if p == nil {
			if fromNew {
				t.newQ.popHead()
				t.oldQ.pushTail(q, listOld)
			} else {
				t.oldQ.popHead()
				// Queue empty and leaving the scheduler: release the TID
				// binding (Algorithm 2 line 18).
				if q != &t.overflowQ {
					q.tid = nil
				}
			}
			continue
		}
		fq.len--
		t.len--
		if fromNew {
			fq.sparseHits++
		}
		q.deficit -= p.Size
		return p
	}
}
