package mactid

import (
	"testing"

	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// The tests in this file drive the structure as the MAC's FQ-CoDel qdisc
// baseline (RFC 8290): one TID at Linux fq_codel's 10,240-packet limit,
// dequeued under codel.Default().

// fqCoDel is a one-TID Fq read on a clock, as the MAC builds it per
// access category.
type fqCoDel struct {
	*Fq
	tid   TID
	clock func() sim.Time
}

// newFQCoDel builds an fqCoDel; a zero cfg.Limit is fq_codel's 10,240.
func newFQCoDel(cfg Config, clock func() sim.Time) *fqCoDel {
	if cfg.Limit <= 0 {
		cfg.Limit = 10240
	}
	f := &fqCoDel{Fq: New(cfg), clock: clock}
	f.InitTID(&f.tid)
	return f
}

func (f *fqCoDel) Enqueue(p *pkt.Packet) bool { return f.tid.Enqueue(p, f.clock()) }

func (f *fqCoDel) Dequeue() *pkt.Packet { return f.tid.Dequeue(f.clock(), codel.Default()) }

func newFQ(t *testing.T, cfg Config) (*fqCoDel, *sim.Sim) {
	t.Helper()
	s := sim.New(1)
	return newFQCoDel(cfg, s.Now), s
}

func TestFIFOWithinFlow(t *testing.T) {
	fq, _ := newFQ(t, Config{})
	for i := 0; i < 10; i++ {
		p := mkp(1, 100)
		p.SeqNo = int64(i)
		fq.Enqueue(p)
	}
	for i := 0; i < 10; i++ {
		p := fq.Dequeue()
		if p == nil || p.SeqNo != int64(i) {
			t.Fatalf("flow order violated at %d: %+v", i, p)
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	fq, _ := newFQ(t, Config{})
	// Two backlogged flows with equal packet sizes share dequeues evenly.
	for i := 0; i < 100; i++ {
		fq.Enqueue(mkp(1, 1000))
		fq.Enqueue(mkp(2, 1000))
	}
	counts := map[uint64]int{}
	for i := 0; i < 100; i++ {
		p := fq.Dequeue()
		counts[p.Flow]++
	}
	if counts[1] < 40 || counts[2] < 40 {
		t.Fatalf("unfair DRR: %v", counts)
	}
}

func TestByteFairnessUnequalSizes(t *testing.T) {
	fq, _ := newFQ(t, Config{})
	// Flow 1 sends 1500-byte packets, flow 2 sends 300-byte packets. DRR
	// should equalise bytes, so flow 2 gets ~5x the packets.
	for i := 0; i < 300; i++ {
		fq.Enqueue(mkp(1, 1500))
		fq.Enqueue(mkp(2, 300))
		fq.Enqueue(mkp(2, 300))
		fq.Enqueue(mkp(2, 300))
		fq.Enqueue(mkp(2, 300))
		fq.Enqueue(mkp(2, 300))
	}
	bytes := map[uint64]int{}
	for i := 0; i < 600; i++ {
		p := fq.Dequeue()
		bytes[p.Flow] += p.Size
	}
	ratio := float64(bytes[2]) / float64(bytes[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("byte shares unfair: %v (ratio %.2f)", bytes, ratio)
	}
}

func TestSparseFlowPriority(t *testing.T) {
	fq, _ := newFQ(t, Config{})
	// Backlog one bulk flow, drain a few packets so it sits on the old
	// list, then a sparse packet must jump the queue.
	for i := 0; i < 50; i++ {
		fq.Enqueue(mkp(1, 1500))
	}
	fq.Dequeue()
	fq.Dequeue()
	sp := mkp(99, 100)
	fq.Enqueue(sp)
	if got := fq.Dequeue(); got != sp {
		t.Fatalf("sparse packet not prioritised: got flow %d", got.Flow)
	}
	if fq.SparseDequeues() == 0 {
		t.Fatal("sparse dequeue not counted")
	}
}

func TestSparseAntiGaming(t *testing.T) {
	fq, _ := newFQ(t, Config{})
	for i := 0; i < 50; i++ {
		fq.Enqueue(mkp(1, 1500))
	}
	// Exhaust the bulk flow's first quantum so it rotates to the old list.
	fq.Dequeue()
	fq.Dequeue()
	// A sparse flow gets new-list priority exactly once...
	fq.Enqueue(mkp(99, 100))
	if fq.Dequeue().Flow != 99 {
		t.Fatal("first sparse packet should be served")
	}
	sparseBefore := fq.SparseDequeues()
	// ...then empties, moves to the old list, and must not re-enter the
	// new list on the next enqueue.
	fq.Dequeue() // retires flow 99 from the new list
	fq.Enqueue(mkp(99, 100))
	for i := 0; i < 4; i++ {
		fq.Dequeue()
	}
	if fq.SparseDequeues() != sparseBefore {
		t.Fatal("anti-gaming rule violated: flow regained sparse priority")
	}
}

func TestGlobalLimitDropsFromLongest(t *testing.T) {
	fq, _ := newFQ(t, Config{Limit: 100})
	for i := 0; i < 150; i++ {
		fq.Enqueue(mkp(1, 1500)) // the fat flow
	}
	fq.Enqueue(mkp(2, 100)) // the thin flow
	if fq.Len() > 100 {
		t.Fatalf("limit not enforced: len=%d", fq.Len())
	}
	if fq.OverlimitDrops() == 0 {
		t.Fatal("no overlimit drops recorded")
	}
	// The thin flow's packet must have survived.
	found := false
	for i := 0; i < 101; i++ {
		p := fq.Dequeue()
		if p == nil {
			break
		}
		if p.Flow == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("thin flow starved by global limit")
	}
}

func TestEnqueueReportsOwnDrop(t *testing.T) {
	fq, _ := newFQ(t, Config{Limit: 10})
	for i := 0; i < 10; i++ {
		if !fq.Enqueue(mkp(1, 1500)) {
			t.Fatal("accepted enqueue reported as drop")
		}
	}
	// Flow 1 is the longest; its head is dropped, so the new packet for
	// flow 1 is accepted (head drop, not tail drop).
	if !fq.Enqueue(mkp(1, 1500)) {
		t.Fatal("head-drop should accept the new packet")
	}
	if fq.Len() != 10 {
		t.Fatalf("len=%d, want 10", fq.Len())
	}
}

func TestCodelDropsUnderStandingQueue(t *testing.T) {
	fq, s := newFQ(t, Config{})
	for i := 0; i < 500; i++ {
		fq.Enqueue(mkp(1, 1500))
	}
	// Dequeue slowly: 1 packet per 10 ms -> sojourn far above target.
	for i := 0; i < 300; i++ {
		s.RunUntil(sim.Time(i+1) * 10 * sim.Millisecond)
		if fq.Dequeue() == nil {
			break
		}
	}
	if fq.CodelDrops() == 0 {
		t.Fatal("CoDel never dropped despite standing queue")
	}
}

func TestDropHook(t *testing.T) {
	hooked := 0
	s := sim.New(1)
	fq := newFQCoDel(Config{Limit: 5, DropHook: func(*pkt.Packet) { hooked++ }}, s.Now)
	for i := 0; i < 10; i++ {
		fq.Enqueue(mkp(1, 100))
	}
	if hooked == 0 || hooked != fq.Drops() {
		t.Fatalf("drop hook saw %d, Drops()=%d", hooked, fq.Drops())
	}
}

func TestEmptyDequeue(t *testing.T) {
	fq, _ := newFQ(t, Config{})
	if fq.Dequeue() != nil {
		t.Fatal("dequeue from an empty structure returned a packet")
	}
}

// TestFQCoDelConservation: every enqueued packet is either dequeued or
// dropped.
func TestFQCoDelConservation(t *testing.T) {
	s := sim.New(3)
	dropped := 0
	fq := newFQCoDel(Config{Limit: 64, DropHook: func(*pkt.Packet) { dropped++ }}, s.Now)
	enq := 0
	deq := 0
	r := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		if r.Float64() < 0.7 {
			fq.Enqueue(mkp(uint64(r.Intn(9)), 64+r.Intn(1400)))
			enq++
		} else if fq.Dequeue() != nil {
			deq++
		}
		s.RunUntil(sim.Time(i) * sim.Microsecond)
	}
	for fq.Dequeue() != nil {
		deq++
	}
	if enq != deq+dropped {
		t.Fatalf("conservation violated: enq=%d deq=%d dropped=%d", enq, deq, dropped)
	}
	if fq.Len() != 0 {
		t.Fatalf("len=%d after drain", fq.Len())
	}
}
