// Package sched implements the station-scheduler side of the MAC's
// transmit path: the StationScheduler interface the MAC drives when it
// decides which station builds the next aggregate, and the three
// policies the repository ships — the paper's deficit airtime scheduler
// (§3.2, Algorithm 3, plain and weighted), the DTT comparison baseline
// (Garroppo et al.) and a round-robin baseline that isolates how much of
// the paper's gains come from deficit accounting versus mere per-station
// scheduling.
//
// Every policy is a rotation of Entry values on an intrusive list. The
// MAC holds one Entry per (station, access category) pair inside its
// per-TID state, names that state as the entry's Owner, and talks to the
// scheduler exclusively through entries. Which policy a node runs
// follows from its mac.Scheme; a new policy also needs a new scheme in
// package mac.
package sched

import (
	"fmt"

	"repro/internal/sim"
)

// DefaultQuantum is the airtime (Airtime) or transmission time (DTT)
// replenished per round. It matches the granularity used by the ath9k
// implementation; fairness is independent of the exact value, which only
// trades scheduling granularity for overhead.
const DefaultQuantum = 300 * sim.Microsecond

// MinWeight and MaxWeight bound a station's airtime weight: the span that
// mac80211's 16-bit airtime weight gives around its default of 256. Far
// enough outside it the weighted deficit replenishment truncates to zero
// or overflows, and a station that never earns credit stalls Next.
const (
	MinWeight = 1.0 / 256
	MaxWeight = 256
)

// CheckWeight rejects a station weight outside [MinWeight, MaxWeight],
// NaN and the infinities included.
func CheckWeight(w float64) error {
	if !(w >= MinWeight && w <= MaxWeight) {
		return fmt.Errorf("weight %v outside [1/256, 256]", w)
	}
	return nil
}

// Owner is what an Entry schedules: the MAC's transmit state for one
// (station, access category) pair.
type Owner interface {
	// Backlogged reports whether the owner can contribute packets to an
	// aggregate right now.
	Backlogged() bool
}

// Entry is one station's handle within a StationScheduler. Its holder
// (the MAC) sets Owner before first activating it, and maps the entries
// Next returns back to its own state through it.
type Entry struct {
	// Owner is the state the entry schedules; the policies probe its
	// backlog.
	Owner Owner

	// Weight scales the station's deficit replenishment under the
	// weighted Airtime policy: a station with weight 2 earns twice the
	// airtime share of a weight-1 station. Zero means the default weight
	// of 1; other policies ignore it. Callers bound it with CheckWeight.
	Weight float64

	next   *Entry
	listed bool
	// balance is Airtime's deficit and DTT's token credit: the entry
	// may transmit while it is positive.
	balance sim.Time
}

// StationScheduler schedules the stations of one access category: the
// MAC asks Next which station may build the next aggregate and reports
// completed transmissions back through the Charge methods.
type StationScheduler interface {
	// Activate notifies that the entry has become backlogged. Idempotent
	// for entries already scheduled.
	Activate(*Entry)

	// Next picks the entry that should build the next aggregate, or nil
	// when no backlogged entry remains.
	Next() *Entry

	// ChargeTx accounts a completed transmission. air is the time the
	// frame actually occupied the medium; wall is the time from aggregate
	// submission to completion, including queueing and contention — the
	// quantity DTT (inaccurately, per the paper's §3.2) bills.
	ChargeTx(e *Entry, air, wall sim.Time)

	// ChargeRx accounts a received transmission's airtime.
	ChargeRx(e *Entry, air sim.Time)
}

// list is a singly linked FIFO of entries threaded through Entry.next.
// An entry is on at most one list at a time, and Entry.listed records
// whether it is on one.
type list struct{ head, tail *Entry }

//hj17:hotpath
func (l *list) pushTail(e *Entry) {
	e.next = nil
	e.listed = true
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
	}
	l.tail = e
}

//hj17:hotpath
func (l *list) pushFront(e *Entry) {
	e.next = l.head
	e.listed = true
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

//hj17:hotpath
func (l *list) popHead() *Entry {
	e := l.head
	if e == nil {
		return nil
	}
	l.head = e.next
	if l.head == nil {
		l.tail = nil
	}
	e.next = nil
	e.listed = false
	return e
}

//hj17:hotpath
func (l *list) len() int {
	n := 0
	for e := l.head; e != nil; e = e.next {
		n++
	}
	return n
}
