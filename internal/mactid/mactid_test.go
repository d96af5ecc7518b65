package mactid

import (
	"testing"

	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

func mkp(flow uint64, size int) *pkt.Packet {
	return &pkt.Packet{Flow: flow, Size: size, Proto: pkt.ProtoUDP}
}

func pa() codel.Params { return codel.Default() }

// newTID sets up a TID of fq.
func newTID(fq *Fq) *TID {
	t := new(TID)
	fq.InitTID(t)
	return t
}

func TestPerTIDIsolation(t *testing.T) {
	fq := New(Config{})
	t1 := newTID(fq)
	t2 := newTID(fq)
	a := mkp(1, 100)
	b := mkp(2, 100)
	t1.Enqueue(a, 0)
	t2.Enqueue(b, 0)
	if got := t1.Dequeue(0, pa()); got != a {
		t.Fatalf("TID1 dequeued %+v", got)
	}
	if got := t2.Dequeue(0, pa()); got != b {
		t.Fatalf("TID2 dequeued %+v", got)
	}
	if t1.Dequeue(0, pa()) != nil || t2.Dequeue(0, pa()) != nil {
		t.Fatal("TIDs not empty")
	}
}

func TestFlowOrderWithinTID(t *testing.T) {
	fq := New(Config{})
	tid := newTID(fq)
	for i := 0; i < 20; i++ {
		p := mkp(7, 1500)
		p.SeqNo = int64(i)
		tid.Enqueue(p, 0)
	}
	for i := 0; i < 20; i++ {
		p := tid.Dequeue(0, pa())
		if p == nil || p.SeqNo != int64(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
}

// TestHashCollisionGoesToOverflow: a queue bound to one TID must divert
// same-hash packets of another TID to the overflow queue (Algorithm 1,
// lines 6-8).
func TestHashCollisionGoesToOverflow(t *testing.T) {
	fq := New(Config{Flows: 1}) // force every packet onto one queue
	t1 := newTID(fq)
	t2 := newTID(fq)
	a := mkp(1, 100)
	b := mkp(2, 100)
	t1.Enqueue(a, 0)
	t2.Enqueue(b, 0) // collides; must land in t2's overflow queue
	if fq.collisions != 1 {
		t.Fatalf("collisions = %d, want 1", fq.collisions)
	}
	if got := t2.Dequeue(0, pa()); got != b {
		t.Fatalf("TID2 did not recover its packet from overflow: %+v", got)
	}
	if got := t1.Dequeue(0, pa()); got != a {
		t.Fatalf("TID1 lost its packet: %+v", got)
	}
}

// TestTIDBindingReleased: after a queue empties out of the old list, its
// TID binding clears so another TID can claim it (Algorithm 2, line 18).
func TestTIDBindingReleased(t *testing.T) {
	fq := New(Config{Flows: 1})
	t1 := newTID(fq)
	t2 := newTID(fq)
	t1.Enqueue(mkp(1, 100), 0)
	// Drain: first dequeue serves from the new list; the queue then
	// rotates to the old list and is released once found empty.
	if t1.Dequeue(0, pa()) == nil {
		t.Fatal("expected packet")
	}
	if t1.Dequeue(0, pa()) != nil {
		t.Fatal("expected empty")
	}
	// Now TID2 can claim the hash queue without a collision.
	before := fq.collisions
	t2.Enqueue(mkp(2, 100), 0)
	if fq.collisions != before {
		t.Fatal("binding not released: collision recorded")
	}
	if t2.Dequeue(0, pa()) == nil {
		t.Fatal("TID2 lost its packet")
	}
}

// TestGlobalLimitProtectsThinTIDs: the global limit must drop from the
// longest queue so a flooding TID cannot lock out others — the exact
// lock-out the paper fixes in §4.1.2.
func TestGlobalLimitProtectsThinTIDs(t *testing.T) {
	fq := New(Config{Limit: 100})
	bulk := newTID(fq)
	thin := newTID(fq)
	for i := 0; i < 200; i++ {
		bulk.Enqueue(mkp(1, 1500), 0)
	}
	thin.Enqueue(mkp(2, 100), 0)
	if fq.Len() > 100 {
		t.Fatalf("global limit not enforced: %d", fq.Len())
	}
	if fq.OverlimitDrops() == 0 {
		t.Fatal("no overlimit drops")
	}
	if thin.Len() != 1 {
		t.Fatal("thin TID's packet was dropped")
	}
	if got := thin.Dequeue(0, pa()); got == nil || got.Flow != 2 {
		t.Fatalf("thin TID dequeued %+v", got)
	}
}

func TestSparseQueuePriorityWithinTID(t *testing.T) {
	fq := New(Config{})
	tid := newTID(fq)
	for i := 0; i < 50; i++ {
		tid.Enqueue(mkp(1, 1500), 0)
	}
	// Exhaust the bulk flow's quantum so it rotates to the old list.
	tid.Dequeue(0, pa())
	tid.Dequeue(0, pa())
	sp := mkp(42, 100)
	tid.Enqueue(sp, 0)
	if got := tid.Dequeue(0, pa()); got != sp {
		t.Fatalf("sparse flow not prioritised; got flow %d", got.Flow)
	}
	if fq.SparseDequeues() == 0 {
		t.Fatal("sparse dequeue not counted")
	}
}

func TestLenTracking(t *testing.T) {
	fq := New(Config{})
	t1 := newTID(fq)
	t2 := newTID(fq)
	for i := 0; i < 5; i++ {
		t1.Enqueue(mkp(uint64(i), 100), 0)
	}
	for i := 0; i < 3; i++ {
		t2.Enqueue(mkp(uint64(100+i), 100), 0)
	}
	if t1.Len() != 5 || t2.Len() != 3 || fq.Len() != 8 {
		t.Fatalf("lens wrong: %d/%d/%d", t1.Len(), t2.Len(), fq.Len())
	}
	if !t1.Backlogged() {
		t.Fatal("t1 should be backlogged")
	}
	t1.Dequeue(0, pa())
	if t1.Len() != 4 || fq.Len() != 7 {
		t.Fatalf("lens after dequeue: %d/%d", t1.Len(), fq.Len())
	}
}

func TestCodelDropsCountedPerTID(t *testing.T) {
	fq := New(Config{})
	tid := newTID(fq)
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		tid.Enqueue(mkp(1, 1500), now)
	}
	// Dequeue slowly at high sojourn.
	for i := 0; i < 300; i++ {
		now += 10 * sim.Millisecond
		if tid.Dequeue(now, pa()) == nil {
			break
		}
	}
	if fq.CodelDrops() == 0 {
		t.Fatal("CoDel never engaged")
	}
	// Accounting stays consistent.
	drained := 0
	for tid.Dequeue(now, pa()) != nil {
		drained++
	}
	if tid.Len() != 0 || fq.Len() != 0 {
		t.Fatalf("length accounting broken: tid=%d fq=%d", tid.Len(), fq.Len())
	}
}

// TestConservation: packets either dequeue or drop; counters agree.
func TestConservation(t *testing.T) {
	dropped := 0
	fq := New(Config{Limit: 64, DropHook: func(*pkt.Packet) { dropped++ }})
	tids := []*TID{newTID(fq), newTID(fq), newTID(fq)}
	r := sim.NewRand(11)
	enq, deq := 0, 0
	now := sim.Time(0)
	for i := 0; i < 3000; i++ {
		now += sim.Microsecond * 50
		tid := tids[r.Intn(3)]
		if r.Float64() < 0.7 {
			tid.Enqueue(mkp(uint64(r.Intn(8)), 64+r.Intn(1400)), now)
			enq++
		} else if tid.Dequeue(now, pa()) != nil {
			deq++
		}
	}
	for _, tid := range tids {
		for tid.Dequeue(now, pa()) != nil {
			deq++
		}
	}
	if enq != deq+dropped {
		t.Fatalf("conservation violated: enq=%d deq=%d drop=%d", enq, deq, dropped)
	}
	if fq.Len() != 0 {
		t.Fatalf("fq.Len=%d after drain", fq.Len())
	}
}

// TestFlowTableBuiltOnFirstEnqueue: a structure that only ever sees
// Dequeue builds no flow table, and overflow queues are numbered after
// the table either way.
func TestFlowTableBuiltOnFirstEnqueue(t *testing.T) {
	fq := New(Config{Flows: 64})
	t1, t2 := newTID(fq), newTID(fq)
	for i := 0; i < 3; i++ {
		if t1.Dequeue(sim.Time(i), pa()) != nil {
			t.Fatal("dequeued from an empty structure")
		}
	}
	if fq.flows != nil {
		t.Fatalf("Dequeue built a %d-queue flow table", len(fq.flows))
	}
	if t1.overflowQ.idx != 64 || t2.overflowQ.idx != 65 {
		t.Fatalf("overflow queues numbered %d, %d; want 64, 65", t1.overflowQ.idx, t2.overflowQ.idx)
	}
	t1.Enqueue(mkp(1, 100), 0)
	if len(fq.flows) != 64 {
		t.Fatalf("first Enqueue built %d queues, want 64", len(fq.flows))
	}
}

// TestFlowsMustBePowerOfTwo: the hash masks the flow key, which indexes
// every queue only when the table size is a power of two.
func TestFlowsMustBePowerOfTwo(t *testing.T) {
	for _, flows := range []int{1, 2, 1024} {
		New(Config{Flows: flows})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 1000 flows")
		}
	}()
	New(Config{Flows: 1000})
}
