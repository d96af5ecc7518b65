package sim

import (
	"math"
	"math/bits"
)

// This file implements the hierarchical timing wheel that fronts the
// event heap. The bounded-horizon event classes that dominate scheduling
// traffic — pacing ticks, medium grant completions, link propagation
// delays, retry and CoDel interval timers — are parked in O(1) wheel
// buckets instead of being sifted through the heap at schedule time.
// Whole buckets are flushed into the heap just before their time window
// opens, so every event still passes through the heap before it can
// fire and the engine's total order — (time, seq), same-instant FIFO —
// is exactly the pure heap's pop order. The wheel changes where events
// wait, never when or in what order they run.
//
// Two levels of 256 slots cover the horizon: level 0 at 4.096 µs per
// slot (~1.05 ms), level 1 at ~1.05 ms per slot (~268 ms). Events
// beyond the level-1 horizon, or behind an already-flushed slot, go
// straight to the heap. A level-1 slot cascades into level 0 only when
// its window is the next thing due, so a nearer heap event never drags
// the level-0 position ahead of the clock; each event therefore sees at
// most two O(1) bucket hops, one push into a near-empty heap, and one
// pop.

const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1

	// wheelShift0 sets the level-0 granularity: 2^12 ns = 4.096 µs per
	// slot. Events are flushed to the heap at most one slot-width before
	// they fire, so the heap holds only the current few microseconds.
	wheelShift0 = 12
	wheelShift1 = wheelShift0 + wheelSlotBits

	wheelWords = wheelSlots / 64
)

// wheel is the two-level bucket store. Slot lists are intrusive through
// Event.wnext; occupancy bitmaps make earliest-slot lookup a handful of
// word operations. Positions are absolute slot indices (time >> shift),
// not ring offsets: slots behind pos are flushed, slots at pos+wheelSlots
// and beyond are out of horizon.
type wheel struct {
	slots0 [wheelSlots]*Event
	slots1 [wheelSlots]*Event
	bits0  [wheelWords]uint64
	bits1  [wheelWords]uint64
	pos0   int64 // absolute level-0 index of the next unflushed slot
	pos1   int64 // absolute level-1 index of the next uncascaded slot
	cnt0   int
	cnt1   int

	// lo is a lower bound on the window start of every wheel event: a
	// heap top strictly before it is due without scanning the bitmaps.
	// A scan makes it exact, an insert into an earlier window lowers
	// it, and a flush of slot a0 raises it to the end of a0's window.
	lo Time
}

// insert parks e in a wheel bucket, reporting false when the event is
// out of horizon (or its slot already flushed) and must go to the heap.
func (s *Sim) wheelInsert(e *Event) bool {
	w := &s.wh
	idx0 := int64(e.at) >> wheelShift0
	if w.cnt0 == 0 {
		// Empty level: snap the position forward so a long quiet period
		// does not strand the horizon in the past.
		if p := int64(s.now) >> wheelShift0; p > w.pos0 {
			w.pos0 = p
		}
	}
	d := idx0 - w.pos0
	if d < 0 {
		return false
	}
	if d < wheelSlots {
		i := idx0 & wheelMask
		e.wnext = w.slots0[i]
		w.slots0[i] = e
		w.bits0[i>>6] |= 1 << (uint(i) & 63)
		w.cnt0++
		if st := Time(idx0) << wheelShift0; st < w.lo {
			w.lo = st
		}
		return true
	}
	idx1 := int64(e.at) >> wheelShift1
	if w.cnt1 == 0 {
		if p := w.pos0 >> wheelSlotBits; p > w.pos1 {
			w.pos1 = p
		}
	}
	d1 := idx1 - w.pos1
	if d1 < 0 || d1 >= wheelSlots {
		return false
	}
	i := idx1 & wheelMask
	e.wnext = w.slots1[i]
	w.slots1[i] = e
	w.bits1[i>>6] |= 1 << (uint(i) & 63)
	w.cnt1++
	if st := Time(idx1) << wheelShift1; st < w.lo {
		w.lo = st
	}
	return true
}

// wheelEmpty reports whether the wheel holds no events.
func (s *Sim) wheelEmpty() bool { return s.wh.cnt0 == 0 && s.wh.cnt1 == 0 }

// wheelStep scans both levels for the earliest occupied window and
// makes wh.lo its start. Unless the heap top comes strictly before that
// window, it then moves the window one step toward the heap: a level-1
// slot opening at or before the earliest level-0 slot cascades into
// level 0 (a level-1 slot loaded long ago can cover earlier times than
// a level-0 slot filled just now), otherwise the level-0 slot flushes.
// The wheel must not be empty.
func (s *Sim) wheelStep() {
	w := &s.wh
	start0, start1 := Time(math.MaxInt64), Time(math.MaxInt64)
	var a0, a1 int64
	if w.cnt0 > 0 {
		a0 = findSlot(&w.bits0, w.pos0)
		start0 = Time(a0) << wheelShift0
	}
	if w.cnt1 > 0 {
		a1 = findSlot(&w.bits1, w.pos1)
		start1 = Time(a1) << wheelShift1
	}
	w.lo = min(start0, start1)
	if len(s.events) > 0 && s.events[0].at < w.lo {
		return
	}
	if start1 <= start0 {
		s.wheelCascade(a1)
		return
	}
	s.wheelFlush(a0)
	// a0 was the earliest window of both levels, and level-1 windows
	// are whole multiples of a level-0 slot.
	w.lo = Time(a0+1) << wheelShift0
}

// wheelCascade redistributes level-1 slot a1 into level 0 and advances
// past it. Cascading only when a1's window is the earliest due keeps
// pos0 and the clock at or before a1's window, so every event of the
// slot lands at or past pos0.
func (s *Sim) wheelCascade(a1 int64) {
	w := &s.wh
	i := a1 & wheelMask
	e := w.slots1[i]
	w.slots1[i] = nil
	w.bits1[i>>6] &^= 1 << (uint(i) & 63)
	if p := a1 << wheelSlotBits; p > w.pos0 {
		w.pos0 = p
	}
	w.pos1 = a1 + 1
	for e != nil {
		next := e.wnext
		e.wnext = nil
		w.cnt1--
		if e.dead {
			s.recycle(e)
		} else {
			j := (int64(e.at) >> wheelShift0) & wheelMask
			e.wnext = w.slots0[j]
			w.slots0[j] = e
			w.bits0[j>>6] |= 1 << (uint(j) & 63)
			w.cnt0++
		}
		e = next
	}
}

// wheelFlush spills every event of level-0 slot a0 into the heap and
// advances past it. Lazily-cancelled events are recycled here instead
// of travelling through the heap.
func (s *Sim) wheelFlush(a0 int64) {
	w := &s.wh
	i := a0 & wheelMask
	e := w.slots0[i]
	w.slots0[i] = nil
	w.bits0[i>>6] &^= 1 << (uint(i) & 63)
	w.pos0 = a0 + 1
	for e != nil {
		next := e.wnext
		e.wnext = nil
		w.cnt0--
		if e.dead {
			s.recycle(e)
		} else {
			s.push(e)
		}
		e = next
	}
}

// findSlot returns the absolute index of the first occupied slot at or
// after from, searching the 256-slot ring circularly. The bitmap must
// have at least one bit set.
func findSlot(bm *[wheelWords]uint64, from int64) int64 {
	fj := int(from) & wheelMask
	wi, bo := fj>>6, uint(fj)&63
	if b := bm[wi] &^ (1<<bo - 1); b != 0 {
		j := wi<<6 + bits.TrailingZeros64(b)
		return from + int64((j-fj)&wheelMask)
	}
	for k := 1; k < wheelWords; k++ {
		i := (wi + k) & (wheelWords - 1)
		if bm[i] != 0 {
			j := i<<6 + bits.TrailingZeros64(bm[i])
			return from + int64((j-fj)&wheelMask)
		}
	}
	if b := bm[wi] & (1<<bo - 1); b != 0 {
		j := wi<<6 + bits.TrailingZeros64(b)
		return from + int64((j-fj)&wheelMask)
	}
	panic("sim: wheel bitmap empty")
}
