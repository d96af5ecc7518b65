package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// timerQueue is what wheelTrace drives: the Sim, or refQueue below.
type timerQueue interface {
	Now() Time
	After(d Time, fn func()) (cancel func())
	RunUntil(end Time)
	Drain()
}

// simQueue adapts the Sim to timerQueue.
type simQueue struct{ *Sim }

func (q simQueue) After(d Time, fn func()) func() {
	ref := q.Sim.After(d, fn)
	return func() { q.Cancel(ref) }
}

func (q simQueue) Drain() { q.Run(0) }

// refEvent is one pending event of refQueue.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

// refHeap orders refEvents by (time, seq) for container/heap.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refQueue is the pop-order reference for the Sim: one binary heap on
// (time, seq), no wheel. Cancel marks an event dead, and RunUntil leaves
// the clock at end.
type refQueue struct {
	now Time
	seq uint64
	h   refHeap
}

func (q *refQueue) Now() Time { return q.now }

func (q *refQueue) After(d Time, fn func()) func() {
	e := &refEvent{at: q.now + d, seq: q.seq, fn: fn}
	q.seq++
	heap.Push(&q.h, e)
	return func() { e.dead = true }
}

// step fires the earliest live event due by end, discarding dead ones
// on the way, and reports whether it fired one.
func (q *refQueue) step(end Time) bool {
	for len(q.h) > 0 && q.h[0].at <= end {
		e := heap.Pop(&q.h).(*refEvent)
		if e.dead {
			continue
		}
		q.now = e.at
		e.fn()
		return true
	}
	return false
}

func (q *refQueue) RunUntil(end Time) {
	for q.step(end) {
	}
	if q.now < end {
		q.now = end
	}
}

func (q *refQueue) Drain() {
	for q.step(math.MaxInt64) {
	}
}

// wheelTrace runs a randomized self-scheduling workload on q and records,
// for every fired event, the (time, id) pair. The workload exercises
// every routing path of the Sim's wheel+heap hybrid: zero-delay
// continuations, sub-slot delays, level-0 and level-1 horizons,
// beyond-horizon delays that overflow into the heap, lazy cancellations
// of pending events at all horizons, and RunUntil stepping (which snaps
// the clock forward across quiet gaps). A second, sparse phase of as
// many events follows; see sparseFlows.
func wheelTrace(q timerQueue, seed uint64, events int) []string {
	r := NewRand(seed ^ 0x9e3779b97f4a7c15)
	var order []string
	var cancels []func()
	n := 0
	var spawn func(id int)
	spawn = func(id int) {
		order = append(order, fmt.Sprintf("%d@%d", id, q.Now()))
		if n >= events {
			return
		}
		// A burst of follow-ups across all delay classes.
		for i := 0; i < 1+r.Intn(3); i++ {
			n++
			id := n
			var d Time
			switch r.Intn(6) {
			case 0:
				d = 0 // same-instant continuation
			case 1:
				d = Time(r.Intn(4096)) // sub-slot
			case 2:
				d = Time(r.Intn(1 << 20)) // level-0 horizon
			case 3:
				d = Time(r.Intn(1 << 28)) // level-1 horizon
			case 4:
				d = Time(1<<28 + r.Intn(1<<29)) // beyond horizon -> heap
			case 5:
				d = Time(r.Intn(100)) * Millisecond // slot-aligned-ish
			}
			cancels = append(cancels, q.After(d, func() { spawn(id) }))
		}
		// Cancellation storm: kill a random pending event now and then.
		if len(cancels) > 4 && r.Intn(3) == 0 {
			cancels[r.Intn(len(cancels))]()
		}
	}
	q.After(0, func() { spawn(0) })
	for end := Time(0); end < 2*Second; end += 100 * Millisecond {
		q.RunUntil(end)
	}
	q.Drain()
	sparseFlows(q, r, &order, n+1, events)
	return order
}

// sparseFlows is wheelTrace's TCP-like phase. It sends the segments
// with ids first to first+events-1 and appends to order as wheelTrace
// does. A few flows send short ACK-clocked bursts (zero, sub-slot and
// sub-millisecond gaps) separated by 1–20 ms of silence, and every
// segment cancels its flow's retransmission timer and re-arms it
// 200 ms–3 s ahead, so level 1 and the heap hold later events while
// level 0 drains between bursts. Now and then a flow stalls until that
// timer fires and sends its next segment. The RunUntil windows end at
// arbitrary nanoseconds, inside slots.
func sparseFlows(q timerQueue, r *Rand, order *[]string, first, events int) {
	const flows = 4
	last := first + events
	sent := 0
	rto := make([]func(), flows)
	var segment func(f, id int)
	segment = func(f, id int) {
		*order = append(*order, fmt.Sprintf("%d@%d", id, q.Now()))
		sent++
		rto[f]()
		if id >= last {
			return
		}
		next := id + flows
		rto[f] = q.After(200*Millisecond+Time(r.Intn(int(2800*Millisecond))), func() {
			*order = append(*order, fmt.Sprintf("rto%d@%d", f, q.Now()))
			segment(f, next)
		})
		var gap Time
		switch r.Intn(8) {
		case 0:
			gap = 0
		case 1:
			gap = Time(r.Intn(1 << wheelShift0))
		case 2, 3, 4:
			gap = Time(r.Intn(int(200 * Microsecond)))
		case 5, 6:
			gap = Millisecond + Time(r.Intn(int(19*Millisecond)))
		case 7:
			if r.Intn(32) == 0 {
				return // stall until the retransmission timer fires
			}
			gap = Millisecond + Time(r.Intn(int(19*Millisecond)))
		}
		q.After(gap, func() { segment(f, next) })
	}
	for f := range rto {
		f := f
		rto[f] = func() {}
		q.After(Time(r.Intn(int(Millisecond))), func() { segment(f, first+f) })
	}
	for sent < events {
		q.RunUntil(q.Now() + Time(1+r.Intn(20))*Millisecond + Time(r.Intn(1<<wheelShift0)))
	}
	q.Drain()
}

// TestWheelPopOrderIdentity: across randomized cancel/reschedule storms,
// the Sim's wheel+heap hybrid must fire the exact same events at the
// exact same times in the exact same order as the pure-heap reference.
// This is the property that keeps golden campaign artifacts
// byte-identical.
func TestWheelPopOrderIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		a := wheelTrace(simQueue{New(seed)}, seed, 30000)
		b := wheelTrace(&refQueue{}, seed, 30000)
		if len(a) != len(b) {
			t.Fatalf("seed %d: fired %d events with wheel, %d without", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: divergence at event %d: wheel fired %s, heap fired %s",
					seed, i, a[i], b[i])
			}
		}
	}
}

// TestWheelCascadeWaitsForHeap: a level-1 slot cascades only when its
// window is the next thing due. With level 0 empty, the heap holding the
// next event and level 1 holding one at least 1 ms later, an event
// scheduled a few hundred µs ahead must land in the wheel. A cascade
// that ran ahead of the heap would move level 0 to the far slot's window
// and send every nearer schedule to the heap until the clock got there.
func TestWheelCascadeWaitsForHeap(t *testing.T) {
	// probe is the heap event's callback.
	probe := func(s *Sim, name string) func() {
		return func() {
			s.After(300*Microsecond, func() {})
			if n := len(s.events); n != 0 {
				t.Errorf("%s: an event 300µs ahead went to the heap (%d heaped), not the wheel", name, n)
			}
		}
	}

	// Two events share a level-0 slot, and the probe fires while level 1
	// still holds the 10 ms event.
	s := New(1)
	s.At(10*Millisecond, func() {})
	s.At(100*Microsecond, func() {})
	s.At(100*Microsecond+1, probe(s, "flushed slot"))
	s.Run(0)

	// A timer beyond the level-1 horizon waits in the heap from the
	// start; the level-1 event is scheduled later, 10 ms behind it.
	s = New(1)
	s.At(300*Millisecond, probe(s, "beyond horizon"))
	s.At(100*Millisecond, func() { s.After(210*Millisecond, func() {}) })
	s.Run(0)
}

// TestWheelFlushBound: a timer waiting in the heap must not overtake the
// earlier wheel events of its own level-0 slot once the slot before it
// has fired.
func TestWheelFlushBound(t *testing.T) {
	s := New(1)
	var got []string
	slot := Time(1) << wheelShift0
	h := 300*Millisecond/slot*slot + 200 // beyond the level-1 horizon
	s.At(h, func() { got = append(got, "heap") })
	s.At(100*Millisecond, func() {
		s.At(h-300*Microsecond, func() {
			s.At(h-slot, func() { got = append(got, "prev") })
			s.At(h-100, func() { got = append(got, "wheel") })
		})
	})
	s.Run(0)
	if fmt.Sprint(got) != "[prev wheel heap]" {
		t.Fatalf("fired %v, want [prev wheel heap]", got)
	}
}

// TestWheelSameInstantFIFO: events scheduled for the same instant drain
// in schedule order with the wheel on, including continuations scheduled
// for the current instant while draining.
func TestWheelSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() {
			got = append(got, i)
			if i < 3 {
				j := 10 + i
				s.At(5, func() { got = append(got, j) })
			}
		})
	}
	s.Run(0)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestWheelCascadeOrdering: an event parked in a level-1 slot long in
// advance must not be overtaken by a nearer event inserted into level 0
// later. This is the regression test for positional cascading.
func TestWheelCascadeOrdering(t *testing.T) {
	s := New(1)
	var got []string
	// Far event: lands in level 1.
	s.At(10*Millisecond, func() { got = append(got, "far") })
	// Busy level 0 right up to the far event's window, so level 0 never
	// empties; the near event below lands in level 0 *after* the far
	// event's window start.
	stop := s.Ticker(100*Microsecond, func() {})
	s.At(9*Millisecond, func() {
		s.After(1*Millisecond+50*Microsecond, func() { got = append(got, "near") })
	})
	s.RunUntil(12 * Millisecond)
	stop()
	if len(got) != 2 || got[0] != "far" || got[1] != "near" {
		t.Fatalf("cascade ordering wrong: %v", got)
	}
}

// TestWheelDispatchSkipsHeap: events within the wheel's horizon fire
// straight from its level-0 slots, never through the heap. 200 events
// share one instant in one level-0 slot, and 200 more share a later
// instant in one level-1 slot that cascades when its window opens. All
// fire in (time, seq) order, and the heap stays empty throughout.
func TestWheelDispatchSkipsHeap(t *testing.T) {
	s := New(1)
	type ev struct {
		at Time
		id int
	}
	var want, got []ev
	add := func(at Time) {
		e := ev{at, len(want)}
		want = append(want, e)
		s.At(at, func() {
			if n := len(s.events); n != 0 {
				t.Fatalf("event %d fired with %d events in the heap", e.id, n)
			}
			got = append(got, ev{s.Now(), e.id})
		})
	}
	for i := 0; i < 200; i++ {
		add(5*Millisecond + 7) // level 1: past level 0's ~1 ms horizon
	}
	for i := 0; i < 200; i++ {
		add(100 * Microsecond) // level 0
	}
	if s.wh.cnt0 != 200 || s.wh.cnt1 != 200 || len(s.events) != 0 {
		t.Fatalf("level 0 holds %d, level 1 %d, heap %d; want 200, 200, 0",
			s.wh.cnt0, s.wh.cnt1, len(s.events))
	}
	s.Run(0)
	slices.SortStableFunc(want, func(a, b ev) int { return cmp.Compare(a.at, b.at) })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: fired %v, want %v", i, got[i], want[i])
		}
	}
}

// TestWheelSlotOrderMixed: one level-0 slot receives events two ways.
// Some are inserted directly, some arrive in a cascade of a LIFO level-1
// list that was filled earlier, with equal times across both. The slot
// must fire them in (time, seq) order: a cascaded event goes before a
// direct one of the same time, which was scheduled after it.
func TestWheelSlotOrderMixed(t *testing.T) {
	s := New(1)
	var want, got []string
	base := 5 * Millisecond // one 4.096 µs level-0 slot from here
	add := func(name string, at Time) {
		want = append(want, name)
		s.At(at, func() {
			if n := len(s.events); n != 0 {
				t.Fatalf("%s fired with %d events in the heap", name, n)
			}
			got = append(got, name)
		})
	}
	// Filed in level 1 at time 0, so its list is LIFO.
	for i, k := range []Time{2, 0, 1, 0, 2, 3} {
		add(fmt.Sprintf("L1.%d@%d", i, k), base+k)
	}
	if s.wh.cnt1 != 6 {
		t.Fatalf("level 1 holds %d events, want 6", s.wh.cnt1)
	}
	// At 4 ms the 5 ms slot is within level 0's horizon, but level 1's
	// window holding it has not opened yet.
	s.At(4*Millisecond, func() {
		n0, n1 := s.wh.cnt0, s.wh.cnt1
		for i, k := range []Time{1, 0, 2, 0, 3, 2} {
			add(fmt.Sprintf("L0.%d@%d", i, k), base+k)
		}
		if s.wh.cnt0 != n0+6 || s.wh.cnt1 != n1 || len(s.events) != 0 {
			t.Fatalf("direct inserts did not all land in level 0")
		}
	})
	s.Run(0)
	// (time, seq) order: by offset, then schedule order.
	at := func(name string) string { return name[strings.IndexByte(name, '@'):] }
	slices.SortStableFunc(want, func(a, b string) int { return strings.Compare(at(a), at(b)) })
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v\nwant  %v", got, want)
	}
}

// heapWatch is a timerQueue over the Sim that checks where each schedule
// went: an event may go to the heap only when it lies beyond the
// wheel's level-1 horizon, which reaches at least 255 level-1 slots past
// the clock, or behind level 0's position.
type heapWatch struct {
	simQueue
	t      *testing.T
	heaped int
}

func (q *heapWatch) After(d Time, fn func()) func() {
	s := q.Sim
	n := len(s.events)
	cancel := q.simQueue.After(d, fn)
	if len(s.events) == n {
		return cancel
	}
	q.heaped++
	at := s.Now() + d
	beyond := d >= (wheelSlots-1)<<wheelShift1
	behind := int64(at)>>wheelShift0 < s.wh.pos0
	if !beyond && !behind {
		q.t.Fatalf("an event %v ahead at %v went to the heap (level 0 at slot %d)",
			d, at, s.wh.pos0)
	}
	return cancel
}

// TestWheelHeapHoldsOnlyFarEvents: across both phases of the randomized
// trace, the heap receives only what the wheel cannot place.
func TestWheelHeapHoldsOnlyFarEvents(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		q := &heapWatch{simQueue: simQueue{New(seed)}, t: t}
		wheelTrace(q, seed, 30000)
		if q.heaped == 0 {
			t.Fatalf("seed %d: no event went to the heap; the trace no longer reaches past the horizon", seed)
		}
	}
}

// BenchmarkWheelPushPop: schedule/fire cost through the timing wheel
// and heap with a steady population of pending timers.
func BenchmarkWheelPushPop(b *testing.B) {
	s := New(1)
	r := NewRand(7)
	nop := func() {}
	// Steady population of 4096 pending timers at mixed horizons, as the
	// MAC keeps in flight across pacing, grants and CoDel intervals.
	for i := 0; i < 4096; i++ {
		s.After(Time(1+r.Intn(1<<22)), nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Time(1+r.Intn(1<<22)), nop)
		s.Step()
	}
}

// BenchmarkSparseRearm: the ACK-clocked TCP pattern. Four flows send
// bursts of closely spaced segments with 1–20 ms gaps between bursts;
// each segment comes with an ACK due at the same instant, and cancels
// and re-arms its flow's retransmission timer about 200 ms ahead. So
// level 0 often drains while the heap holds the ACK and level 1 holds
// the timers.
func BenchmarkSparseRearm(b *testing.B) {
	s := New(1)
	r := NewRand(7)
	nop := func() {}
	const flows = 4
	var rto [flows]EventRef
	for f := 0; f < flows; f++ {
		f := f
		var seg func()
		seg = func() {
			s.Cancel(rto[f])
			rto[f] = s.After(200*Millisecond+Time(r.Intn(int(50*Millisecond))), nop)
			gap := Time(r.Intn(int(100 * Microsecond)))
			if r.Intn(8) == 0 {
				gap = Millisecond + Time(r.Intn(int(19*Millisecond)))
			}
			s.After(gap, seg)
			s.After(gap, nop)
		}
		s.After(Time(f)*Millisecond, seg)
	}
	s.RunUntil(Second) // fill level 1 with timers
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(s.EventsRun() + uint64(b.N))
}

// BenchmarkSameInstantDrain: cost of bursts of same-instant events, the
// pattern of aggregate delivery fan-out.
func BenchmarkSameInstantDrain(b *testing.B) {
	s := New(1)
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now() + 100
		for j := 0; j < 16; j++ {
			s.At(at, nop)
		}
		s.Run(0)
	}
}

// BenchmarkTickerFanout: many tickers with one period, the dense
// scenario's pattern. Stations with equal UDP periods tick at the same
// instant, so every 5 ms 200 events cascade from one level-1 slot into
// one level-0 slot and fire there in schedule order.
func BenchmarkTickerFanout(b *testing.B) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 200; i++ {
		s.Ticker(5*Millisecond, nop)
	}
	s.RunUntil(Second)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(s.EventsRun() + uint64(b.N))
}
