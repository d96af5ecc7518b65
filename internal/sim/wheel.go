package sim

import (
	"math"
	"math/bits"
)

// This file implements the hierarchical timing wheel that holds the
// bounded-horizon events: pacing ticks, medium grant completions, link
// propagation delays, retry and CoDel interval timers, and TCP timers
// under ~268 ms. Each level-0 slot is a list kept sorted by (time, seq),
// so the head of the earliest occupied level-0 slot is level 0's next
// event and fires straight from the wheel. The run loop (due) compares
// it with only two other candidates: the start of the earliest level-1
// window, which cascades into level 0 first when it opens no later, and
// the top of the 4-ary heap, which holds only the events the wheel
// cannot place. The engine's total order — (time, seq), same-instant
// FIFO — is therefore exactly a pure heap's pop order. The wheel changes
// where events wait, never when or in what order they run.
//
// Two levels of 256 slots cover the horizon: level 0 at 4.096 µs per
// slot (~1.05 ms), level 1 at ~1.05 ms per slot (~268 ms). Events beyond
// the level-1 horizon, or behind level 0's position, go to the heap.
// A level-1 slot cascades into level 0 only when its window is the next
// thing due (Varghese & Lauck, SOSP '87), so a nearer event never drags
// level 0's position ahead of the clock.

const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1

	// wheelShift0 sets the level-0 granularity: 2^12 ns = 4.096 µs per
	// slot. A level-0 slot holds the events of one such window, so the
	// sorted insert walks only events a few microseconds apart.
	wheelShift0 = 12
	wheelShift1 = wheelShift0 + wheelSlotBits

	wheelWords = wheelSlots / 64
)

// wheel is the two-level bucket store. Slot lists are intrusive through
// Event.wnext: a level-0 list is sorted by (at, seq) with a tail pointer
// for the common append, a level-1 list is LIFO. Occupancy bitmaps make
// earliest-slot lookup a handful of word operations. Positions are
// absolute slot indices (time >> shift), not ring offsets: the ring of a
// level covers slots pos to pos+wheelSlots-1.
//
// pos0 never passes a level-1 window that has not cascaded, so every
// event a cascade moves down lands at or past it.
type wheel struct {
	head0 [wheelSlots]*Event
	tail0 [wheelSlots]*Event
	head1 [wheelSlots]*Event
	bits0 [wheelWords]uint64
	bits1 [wheelWords]uint64
	pos0  int64 // absolute level-0 index at or before every level-0 event
	pos1  int64 // absolute level-1 index at or before every level-1 event
	cnt0  int
	cnt1  int

	// start1 is the window start of the earliest occupied level-1 slot,
	// or math.MaxInt64 when level 1 is empty. A level-1 insert lowers
	// it; a cascade recomputes it.
	start1 Time
}

// before reports whether a fires strictly before b: earlier time first,
// schedule order within an instant.
func (a *Event) before(b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheelInsert parks e in a wheel slot, reporting false when the event is
// out of horizon (or behind level 0's position) and must go to the heap.
//
//hj17:hotpath
func (s *Sim) wheelInsert(e *Event) bool {
	w := &s.wh
	// Every queued event is at or after now, so level 0 may start at the
	// clock's slot: a quiet spell does not strand the horizon in the past.
	if p := int64(s.now) >> wheelShift0; p > w.pos0 {
		w.pos0 = p
	}
	idx0 := int64(e.at) >> wheelShift0
	d := idx0 - w.pos0
	if d < 0 {
		return false
	}
	if d < wheelSlots {
		w.insert0(idx0&wheelMask, e)
		return true
	}
	// Level-1 events lie past level 0's ring, so the level-1 ring may
	// start at level 0's window.
	if p := w.pos0 >> wheelSlotBits; p > w.pos1 {
		w.pos1 = p
	}
	idx1 := int64(e.at) >> wheelShift1
	d1 := idx1 - w.pos1
	if d1 < 0 || d1 >= wheelSlots {
		return false
	}
	i := idx1 & wheelMask
	e.wnext = w.head1[i]
	w.head1[i] = e
	w.bits1[i>>6] |= 1 << (uint(i) & 63)
	w.cnt1++
	if st := Time(idx1) << wheelShift1; st < w.start1 {
		w.start1 = st
	}
	return true
}

// insert0 links e into level-0 ring slot i, keeping the list sorted by
// (at, seq). A fresh schedule carries the largest seq yet, so it goes at
// the tail unless an event of the slot is due later; a cascade of a LIFO
// level-1 list brings equal-time events in descending seq, and each
// stops at the head.
//
//hj17:hotpath
func (w *wheel) insert0(i int64, e *Event) {
	w.cnt0++
	t := w.tail0[i]
	if t == nil {
		w.head0[i], w.tail0[i] = e, e
		w.bits0[i>>6] |= 1 << (uint(i) & 63)
		return
	}
	if !e.before(t) {
		t.wnext = e
		w.tail0[i] = e
		return
	}
	// e sorts before the tail, so the walk stops at or before it.
	p := &w.head0[i]
	for !e.before(*p) {
		p = &(*p).wnext
	}
	e.wnext = *p
	*p = e
}

// wheelCascade moves the earliest level-1 slot into level 0 and
// advances past it. It runs only when that slot's window opens no later
// than every other queued event, so pos0 is at or before the window and
// every event of the slot lands at or past pos0. Lazily cancelled events
// are recycled here instead of travelling on.
func (s *Sim) wheelCascade() {
	w := &s.wh
	a1 := int64(w.start1) >> wheelShift1
	i := a1 & wheelMask
	e := w.head1[i]
	w.head1[i] = nil
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
			w.insert0((int64(e.at)>>wheelShift0)&wheelMask, e)
		}
		e = next
	}
	w.start1 = math.MaxInt64
	if w.cnt1 > 0 {
		w.start1 = Time(findSlot(&w.bits1, w.pos1)) << wheelShift1
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
