// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution. Its
// event queue is a two-level timing wheel whose level-0 slots are lists
// sorted by (time, seq), backed by a monomorphic 4-ary heap for the
// events the wheel cannot place (wheel.go). The run loop fires the next
// event straight from whichever of the three holds it. Events scheduled
// for the same instant fire in the order they were scheduled, which
// keeps runs fully deterministic for a given seed.
//
// The engine's hot path is allocation-free in steady state: fired and
// cancelled events return to a per-world free list and are recycled by
// later At/After calls. Callers therefore never hold *Event directly;
// scheduling returns an EventRef — a generation-counted handle that
// turns into a harmless no-op if the event it named has already fired
// and been recycled.
//
// Cancellation is lazy: Cancel marks the event dead in O(1) instead of
// unlinking it from its slot or the heap, and dead events are skipped
// (and recycled) when they come up next. An event a callback schedules
// for the current instant carries a larger seq than every event already
// queued for it, so it fires after them within the same instant.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations expressed in the simulator's time base.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to simulator time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Event is a scheduled callback. Events are owned by the Sim: they are
// recycled into a free list when they fire or are skipped after a lazy
// cancel, so outside code refers to them only through the
// generation-counted EventRef.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	fnArg func(any) // used instead of fn when scheduled via AtCall
	arg   any
	wnext *Event // next event in a timer-wheel slot list
	gen   uint32 // bumped on recycle; stale EventRefs stop matching
	dead  bool   // lazily cancelled; skipped and recycled at pop
}

// EventRef is a handle to a scheduled event. The zero value names no
// event. A ref goes stale once its event fires or is cancelled;
// Cancel on a stale ref is a no-op, so holding a ref past the event's
// lifetime is always safe.
type EventRef struct {
	e   *Event
	gen uint32
}

// Valid reports whether the ref names an event (it may have fired
// already; see Scheduled). The zero EventRef is not valid.
func (r EventRef) Valid() bool { return r.e != nil }

// Scheduled reports whether the referenced event is still pending.
func (r EventRef) Scheduled() bool {
	return r.e != nil && r.e.gen == r.gen && !r.e.dead
}

// Time reports when the referenced event is scheduled to fire, or 0 when
// the ref is stale or zero.
func (r EventRef) Time() Time {
	if !r.Scheduled() {
		return 0
	}
	return r.e.at
}

// slot is one 4-ary heap cell. The ordering key (at, seq) is stored
// inline so sift comparisons never chase the event pointer.
type slot struct {
	at  Time
	seq uint64
	e   *Event
}

// before reports whether a fires strictly before b: earlier time first,
// schedule order within an instant.
func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulator instance. The zero value is not usable;
// call New.
type Sim struct {
	now    Time
	seq    uint64
	events []slot // 4-ary min-heap on (at, seq): what the wheel cannot place
	rng    *Rand
	nRun   uint64 // events executed
	live   int    // scheduled events not yet fired or cancelled

	// wh is the hierarchical timing wheel (wheel.go). It holds every
	// event within its ~268 ms horizon; events fire straight from its
	// sorted level-0 slots, and the heap keeps only the rest.
	wh wheel

	free      []*Event // recycled events
	allocated uint64   // events ever heap-allocated

	// alloc is an opaque per-world allocator slot. Packages that cannot
	// be imported from here (notably pkt, whose packet pool every layer
	// of one world must share) hang their free lists on it via
	// Allocator/SetAllocator.
	alloc any
}

// New creates a simulator whose random source is seeded with seed.
func New(seed uint64) *Sim {
	s := &Sim{rng: NewRand(seed)}
	s.wh.start1 = math.MaxInt64
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *Rand { return s.rng }

// EventsRun reports how many events have executed so far.
func (s *Sim) EventsRun() uint64 { return s.nRun }

// Pending reports the number of events currently scheduled to fire
// (cancelled events awaiting lazy recycling are not counted).
func (s *Sim) Pending() int { return s.live }

// Allocator returns the world's opaque allocator attachment (nil until
// SetAllocator). See pkt.PoolOf for the packet pool that rides here.
func (s *Sim) Allocator() any { return s.alloc }

// SetAllocator installs the world's allocator attachment.
func (s *Sim) SetAllocator(v any) { s.alloc = v }

// getEvent pops a recycled event or allocates a fresh one.
//
//hj17:hotpath
func (s *Sim) getEvent() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	s.allocated++
	return &Event{}
}

// recycle invalidates every outstanding ref to e and returns it to the
// free list.
//
//hj17:hotpath
func (s *Sim) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.wnext = nil
	e.dead = false
	s.free = append(s.free, e)
}

// push inserts e into the 4-ary heap (sift-up).
//
//hj17:hotpath
func (s *Sim) push(e *Event) {
	sl := slot{at: e.at, seq: e.seq, e: e}
	h := s.events
	i := len(h)
	h = append(h, sl)
	for i > 0 {
		p := (i - 1) >> 2
		if !sl.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = sl
	s.events = h
}

// pop removes and returns the heap minimum (sift-down). The heap must not
// be empty.
//
//hj17:hotpath
func (s *Sim) pop() *Event {
	h := s.events
	top := h[0].e
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			// Find the least of up to four children.
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(h[m]) {
					m = j
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	s.events = h
	return top
}

// schedule enqueues a prepared event at absolute time at.
//
//hj17:hotpath
func (s *Sim) schedule(e *Event, at Time) EventRef {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	e.at = at
	e.seq = s.seq
	s.seq++
	s.live++
	if !s.wheelInsert(e) {
		s.push(e)
	}
	return EventRef{e: e, gen: e.gen}
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a model bug.
//
//hj17:hotpath
func (s *Sim) At(at Time, fn func()) EventRef {
	e := s.getEvent()
	e.fn = fn
	return s.schedule(e, at)
}

// After schedules fn to run d after the current time.
//
//hj17:hotpath
func (s *Sim) After(d Time, fn func()) EventRef {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtCall schedules fn(arg) at absolute time at. Unlike At with a closure
// over arg, a shared fn plus a pointer-shaped arg allocates nothing —
// this is the form the per-packet hot paths use.
//
//hj17:hotpath
func (s *Sim) AtCall(at Time, fn func(any), arg any) EventRef {
	e := s.getEvent()
	e.fnArg = fn
	e.arg = arg
	return s.schedule(e, at)
}

// AfterCall schedules fn(arg) d after the current time.
//
//hj17:hotpath
func (s *Sim) AfterCall(d Time, fn func(any), arg any) EventRef {
	if d < 0 {
		d = 0
	}
	return s.AtCall(s.now+d, fn, arg)
}

// Cancel removes a scheduled event. Cancelling a stale or zero ref
// (the event already fired or was already cancelled) is a no-op.
//
// Cancellation is lazy and O(1): the event is only marked dead. It keeps
// its place in the queue and is recycled when it reaches the front.
//
//hj17:hotpath
func (s *Sim) Cancel(r EventRef) {
	e := r.e
	if e == nil || e.gen != r.gen || e.dead {
		return
	}
	e.dead = true
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	s.live--
}

// exec fires e at its time: the event is recycled first (so refs to it
// are stale during its own callback, and the callback may immediately
// reuse the object via a new schedule), then its function runs.
//
//hj17:hotpath
func (s *Sim) exec(e *Event) {
	s.now = e.at
	s.nRun++
	s.live--
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	s.recycle(e)
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

// due removes and returns the next live event if it is due at or before
// end, or returns nil. The candidates are the head of the earliest
// occupied level-0 slot and the heap top; the earlier one on (at, seq)
// is taken unless the earliest level-1 window opens no later, in which
// case that window cascades first (every level-1 event is at or after
// its window's start, so none can precede an event before it). Dead
// events are recycled as they come up, a dead heap top at once. pos0
// moves to the slot fired from only once the cascade check has passed,
// so it never passes a level-1 window that has not cascaded.
//
//hj17:hotpath
func (s *Sim) due(end Time) *Event {
	w := &s.wh
	for {
		var e *Event
		var a0 int64
		if w.cnt0 > 0 {
			// pos0 is the slot last fired from, so the earliest occupied
			// slot is usually in pos0's bitmap word.
			fj := uint(w.pos0) & wheelMask
			if b := w.bits0[fj>>6] >> (fj & 63); b != 0 {
				a0 = w.pos0 + int64(bits.TrailingZeros64(b))
			} else {
				a0 = findSlot(&w.bits0, w.pos0)
			}
			e = w.head0[a0&wheelMask]
		}
		heaped := false
		for len(s.events) > 0 {
			h := s.events[0]
			if h.e.dead {
				// A cancelled far event, typically a re-armed RTO: reclaim
				// it now rather than when its time comes.
				s.pop()
				s.recycle(h.e)
				continue
			}
			if e == nil || h.at < e.at || h.at == e.at && h.seq < e.seq {
				e, heaped = h.e, true
			}
			break
		}
		at := Time(math.MaxInt64)
		if e != nil {
			at = e.at
		}
		if w.start1 <= at && w.cnt1 > 0 {
			if w.start1 > end {
				return nil
			}
			s.wheelCascade()
			continue
		}
		if at > end || e == nil {
			return nil
		}
		if heaped {
			s.pop()
		} else {
			i := a0 & wheelMask
			if w.head0[i] = e.wnext; e.wnext == nil {
				w.tail0[i] = nil
				w.bits0[i>>6] &^= 1 << (uint(i) & 63)
			}
			w.cnt0--
			w.pos0 = a0
		}
		if e.dead {
			s.recycle(e)
			continue
		}
		return e
	}
}

// Step runs the next event, advancing the clock. It reports false when no
// events remain.
//
//hj17:hotpath
func (s *Sim) Step() bool {
	e := s.due(math.MaxInt64)
	if e == nil {
		return false
	}
	s.exec(e)
	return true
}

// RunUntil executes events until the clock would pass end or the queue
// empties. The clock is left at end if it was reached.
func (s *Sim) RunUntil(end Time) {
	for e := s.due(end); e != nil; e = s.due(end) {
		s.exec(e)
	}
	if s.now < end {
		s.now = end
	}
}

// Run executes events until the queue is empty. maxEvents guards against
// runaway models; zero means no limit. A run stopped by maxEvents leaves
// the rest queued, so a later run resumes in exact order.
func (s *Sim) Run(maxEvents uint64) {
	for e := s.due(math.MaxInt64); e != nil; e = s.due(math.MaxInt64) {
		s.exec(e)
		if maxEvents > 0 && s.nRun >= maxEvents {
			return
		}
	}
}

// Ticker repeatedly invokes fn every period until cancelled via the
// returned stop function.
func (s *Sim) Ticker(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var ev EventRef
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = s.After(period, tick)
		}
	}
	ev = s.After(period, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
	}
}
