package mactid

import (
	"slices"
	"testing"

	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// counters reads the five counters the structure and the reference share.
func counters(q interface {
	Len() int
	Drops() int
	CodelDrops() int
	OverlimitDrops() int
	SparseDequeues() int
}) [5]int {
	return [5]int{q.Len(), q.Drops(), q.CodelDrops(), q.OverlimitDrops(), q.SparseDequeues()}
}

// TestMatchesReference feeds a one-TID Fq (fqCoDel) and refFQCoDel
// identical packets under random enqueues and dequeues, with small limits and a clock that
// advances 0-3 ms per op so over-limit and CoDel drops both fire. At every
// step the two must agree on acceptance, the packet dequeued, the packets
// dropped (in order) and all five counters.
func TestMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		r := sim.NewRand(seed)
		var now sim.Time
		clock := func() sim.Time { return now }
		var got, want []int64 // SeqNo of each packet dropped this step
		limit := 5 + r.Intn(60)
		fq := newFQCoDel(Config{Flows: 16, Limit: limit,
			DropHook: func(p *pkt.Packet) { got = append(got, p.SeqNo) }}, clock)
		ref := newRef(refConfig{Flows: 16, Limit: limit, Clock: clock,
			DropHook: func(p *pkt.Packet) { want = append(want, p.SeqNo) }})
		for step := 0; step < 4000; step++ {
			if r.Intn(3) != 0 {
				flow, size := uint64(r.Intn(12)), 100*(1+r.Intn(3))
				a, b := mkp(flow, size), mkp(flow, size)
				a.SeqNo, b.SeqNo = int64(step), int64(step)
				if ga, wa := fq.Enqueue(a), ref.Enqueue(b); ga != wa {
					t.Fatalf("seed %d limit %d step %d: Enqueue = %v, reference %v", seed, limit, step, ga, wa)
				}
			} else {
				gp, wp := fq.Dequeue(), ref.Dequeue()
				if (gp == nil) != (wp == nil) || gp != nil && gp.SeqNo != wp.SeqNo {
					t.Fatalf("seed %d limit %d step %d: Dequeue = %v, reference %v", seed, limit, step, gp, wp)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d limit %d step %d: dropped %v, reference %v", seed, limit, step, got, want)
			}
			if gc, wc := counters(fq), counters(ref); gc != wc {
				t.Fatalf("seed %d limit %d step %d: counters %v, reference %v", seed, limit, step, gc, wc)
			}
			got, want = got[:0], want[:0]
			now += sim.Time(r.Intn(3000)) * sim.Microsecond
		}
	}
}

// refFQCoDel is the standalone FQ-CoDel qdisc the repository implemented
// before that qdisc became a single-TID view of this structure: its own
// flow lists, DRR loop and a flat scan of the occupied flows for the
// over-limit victim. It is kept unchanged, under test-only names, as the
// oracle TestMatchesReference runs the one-TID Fq against.

// refConfig holds the reference's parameters.
type refConfig struct {
	Flows    int // number of hash queues (default 1024)
	Limit    int // global packet limit (default 10240)
	Clock    func() sim.Time
	DropHook func(*pkt.Packet) // invoked for every dropped packet (may be nil)
}

// refQuantum is the DRR quantum in bytes, Linux fq_codel's default.
const refQuantum = 1514

func refFill(c *refConfig) {
	if c.Flows <= 0 {
		c.Flows = 1024
	}
	if c.Limit <= 0 {
		c.Limit = 10240
	}
	if c.Clock == nil {
		panic("refFQCoDel: refConfig.Clock is required")
	}
	if c.DropHook == nil {
		// A no-op hook keeps the drop path unconditional, so packet
		// ownership is discharged on every branch (and pktown can prove
		// it) without a nil check per drop.
		c.DropHook = func(*pkt.Packet) {}
	}
}

type refFlow struct {
	q       pkt.Queue
	cv      codel.Vars
	deficit int
	// list linkage
	next   *refFlow
	inList refListID
	// idx is the flow's position in FQCoDel.flows; occPos its position
	// in the occupied list, -1 while the queue is empty. Together they
	// let the over-limit drop policy scan only backlogged flows while
	// preserving the exact first-longest tie-breaking of a full scan.
	idx    int
	occPos int
}

type refListID uint8

const (
	refListNone refListID = iota
	refListNew
	refListOld
)

// refFlowList is an intrusive FIFO of flows.
type refFlowList struct {
	head, tail *refFlow
	n          int
}

func (l *refFlowList) empty() bool { return l.head == nil }

func (l *refFlowList) pushTail(f *refFlow, id refListID) {
	f.next = nil
	f.inList = id
	if l.tail == nil {
		l.head = f
	} else {
		l.tail.next = f
	}
	l.tail = f
	l.n++
}

func (l *refFlowList) popHead() *refFlow {
	f := l.head
	if f == nil {
		return nil
	}
	l.head = f.next
	if l.head == nil {
		l.tail = nil
	}
	f.next = nil
	f.inList = refListNone
	l.n--
	return f
}

type refFQCoDel struct {
	cfg      refConfig
	flows    []refFlow
	occupied []*refFlow // flows currently holding bytes, in no particular order
	// occBytes mirrors each occupied flow's byte count in a flat array,
	// so the over-limit victim scan walks contiguous ints instead of
	// dereferencing every flow's queue.
	occBytes []int
	// flowMask replaces the hash modulo when Flows is a power of two
	// (the default): k % n == k & (n-1) then. Zero for other counts.
	flowMask uint64
	newQ     refFlowList
	oldQ     refFlowList
	len      int
	drops    int
	// codelDrop is the CoDel drop callback, built once at construction
	// so Dequeue does not allocate a closure per call.
	codelDrop func(*pkt.Packet)

	// stats
	codelDrops int
	overDrops  int
	sparseHits int // packets dequeued from the new list
}

func newRef(cfg refConfig) *refFQCoDel {
	refFill(&cfg)
	fq := &refFQCoDel{
		cfg:   cfg,
		flows: make([]refFlow, cfg.Flows),
		// Backlogged flows are few even under saturation; a small
		// starting capacity keeps steady-state occupancy tracking
		// allocation-free.
		occupied: make([]*refFlow, 0, 16),
		occBytes: make([]int, 0, 16),
	}
	if cfg.Flows&(cfg.Flows-1) == 0 {
		fq.flowMask = uint64(cfg.Flows - 1)
	}
	for i := range fq.flows {
		fq.flows[i].idx = i
		fq.flows[i].occPos = -1
	}
	fq.codelDrop = func(dp *pkt.Packet) {
		fq.len--
		fq.codelDrops++
		fq.drop(dp)
	}
	return fq
}

// Len implements qdisc.Qdisc.
func (fq *refFQCoDel) Len() int { return fq.len }

// Drops implements qdisc.Qdisc.
func (fq *refFQCoDel) Drops() int { return fq.drops }

// CodelDrops reports packets dropped by the AQM control law.
func (fq *refFQCoDel) CodelDrops() int { return fq.codelDrops }

// OverlimitDrops reports packets dropped by the global limit.
func (fq *refFQCoDel) OverlimitDrops() int { return fq.overDrops }

// SparseDequeues reports packets served from the new-flow (sparse) list.
func (fq *refFQCoDel) SparseDequeues() int { return fq.sparseHits }

// drop takes ownership of a packet leaving the discipline by drop and
// hands it to the (always non-nil) DropHook for release.
//
//hj17:owns
//hj17:hotpath
func (fq *refFQCoDel) drop(p *pkt.Packet) {
	fq.drops++
	fq.cfg.DropHook(p)
}

// occUpdate keeps f's membership in the occupied list in step with its
// queue: flows enter when they gain their first byte and leave when they
// drain. Call after any push or pop on f.q.
//
//hj17:hotpath
func (fq *refFQCoDel) occUpdate(f *refFlow) {
	if b := f.q.Bytes(); b > 0 {
		if f.occPos < 0 {
			f.occPos = len(fq.occupied)
			fq.occupied = append(fq.occupied, f)
			fq.occBytes = append(fq.occBytes, b)
		} else {
			fq.occBytes[f.occPos] = b
		}
		return
	}
	if f.occPos >= 0 {
		last := len(fq.occupied) - 1
		moved := fq.occupied[last]
		fq.occupied[f.occPos] = moved
		fq.occBytes[f.occPos] = fq.occBytes[last]
		moved.occPos = f.occPos
		fq.occupied[last] = nil
		fq.occupied = fq.occupied[:last]
		fq.occBytes = fq.occBytes[:last]
		f.occPos = -1
	}
}

// longestFlow returns the flow with the most queued bytes. Only the
// occupied list is scanned; ties resolve to the lowest flow index, which
// is exactly what a first-longest-wins scan over all flows would pick.
//
//hj17:hotpath
func (fq *refFQCoDel) longestFlow() *refFlow {
	if len(fq.occupied) == 0 {
		return &fq.flows[0]
	}
	li, lb := 0, fq.occBytes[0]
	for i, b := range fq.occBytes[1:] {
		if b > lb || (b == lb && fq.occupied[i+1].idx < fq.occupied[li].idx) {
			li, lb = i+1, b
		}
	}
	return fq.occupied[li]
}

// Enqueue implements qdisc.Qdisc.
//
//hj17:hotpath
func (fq *refFQCoDel) Enqueue(p *pkt.Packet) bool {
	var f *refFlow
	if fq.flowMask != 0 {
		f = &fq.flows[p.FlowKey()&fq.flowMask]
	} else {
		f = &fq.flows[p.FlowKey()%uint64(len(fq.flows))]
	}
	p.Enqueued = fq.cfg.Clock()
	f.q.Push(p)
	fq.occUpdate(f)
	fq.len++
	if f.inList == refListNone {
		f.deficit = refQuantum
		fq.newQ.pushTail(f, refListNew)
	}
	accepted := true
	for fq.len > fq.cfg.Limit {
		victim := fq.longestFlow()
		dp := victim.q.Pop()
		if dp == nil {
			break
		}
		fq.occUpdate(victim)
		fq.len--
		if dp == p {
			accepted = false
		}
		fq.overDrops++
		fq.drop(dp)
	}
	return accepted
}

// Dequeue implements qdisc.Qdisc, applying the RFC 8290 scheduling loop.
//
//hj17:hotpath
func (fq *refFQCoDel) Dequeue() *pkt.Packet {
	now := fq.cfg.Clock()
	for {
		var f *refFlow
		fromNew := false
		if !fq.newQ.empty() {
			f = fq.newQ.head
			fromNew = true
		} else if !fq.oldQ.empty() {
			f = fq.oldQ.head
		} else {
			return nil
		}
		if f.deficit <= 0 {
			f.deficit += refQuantum
			if fromNew {
				fq.newQ.popHead()
			} else {
				fq.oldQ.popHead()
			}
			fq.oldQ.pushTail(f, refListOld)
			continue
		}
		p := f.cv.Dequeue(&f.q, codel.Default(), now, fq.codelDrop)
		fq.occUpdate(f)
		if p == nil {
			if fromNew {
				// Move to the old list so a queue emptying under its
				// quantum cannot immediately re-claim sparse priority
				// (RFC 8290 §5.4.2 anti-gaming rule).
				fq.newQ.popHead()
				fq.oldQ.pushTail(f, refListOld)
			} else {
				fq.oldQ.popHead()
			}
			continue
		}
		fq.len--
		if fromNew {
			fq.sparseHits++
		}
		f.deficit -= p.Size
		return p
	}
}
