// Package dtt implements the Deficit Transmission Time scheduler of
// Garroppo et al. ("Providing air-time usage fairness in IEEE 802.11
// networks with the deficit transmission time (DTT) scheduler", Wireless
// Networks 13(4), 2007) — the closest previously proposed solution the
// paper compares its airtime scheduler against in §3.2 and §5.
//
// Each station holds a transmission-time token balance. Stations with a
// positive balance are served round-robin; when no backlogged station has
// credit, every balance is replenished by a fixed quantum. The consumer
// charges the time from frame submission until transmission completion —
// which, as the paper points out, includes time spent waiting for other
// stations and therefore over-charges under contention (advantage 2 of
// the paper's scheduler). There is no received-airtime accounting and no
// sparse-station optimisation.
package dtt

import "repro/internal/sim"

// DefaultQuantum is the per-round token replenishment.
const DefaultQuantum = 300 * sim.Microsecond

// Entry is the per-station token state.
type Entry struct {
	backlogged func() bool
	credit     sim.Time
	active     bool
	next       *Entry

	// Charged accumulates the wall-clock transmission time billed.
	Charged sim.Time
	Rounds  int
}

// Credit exposes the current token balance (for tests).
func (e *Entry) Credit() sim.Time { return e.credit }

// Scheduler is one DTT instance (the MAC keeps one per access category).
type Scheduler struct {
	// Quantum is the token replenishment per round.
	Quantum sim.Time

	head, tail *Entry // circular service list (singly linked, head = next)
}

// New returns a scheduler with the default quantum.
func New() *Scheduler { return &Scheduler{Quantum: DefaultQuantum} }

func (s *Scheduler) quantum() sim.Time {
	if s.Quantum > 0 {
		return s.Quantum
	}
	return DefaultQuantum
}

// Register adds a station with its backlog probe.
func (s *Scheduler) Register(backlogged func() bool) *Entry {
	return &Entry{backlogged: backlogged}
}

// Activate marks e as backlogged. Entries joining the rotation start with
// one quantum of credit.
//
//hj17:hotpath
func (s *Scheduler) Activate(e *Entry) {
	if e.active {
		return
	}
	e.active = true
	e.credit = s.quantum()
	e.next = nil
	if s.tail == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
}

//hj17:hotpath
func (s *Scheduler) pop() *Entry {
	e := s.head
	if e == nil {
		return nil
	}
	s.head = e.next
	if s.head == nil {
		s.tail = nil
	}
	e.next = nil
	return e
}

//hj17:hotpath
func (s *Scheduler) pushTail(e *Entry) {
	e.next = nil
	if s.tail == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
}

// Next returns the station that may transmit: the first backlogged entry
// in rotation order whose token balance is positive. When every
// backlogged entry is out of credit, balances are replenished in quantum
// rounds until one becomes positive (computed in one step). Returns nil
// when no entry is backlogged.
//
//hj17:hotpath
func (s *Scheduler) Next() *Entry {
	for tries := 0; tries < 2; tries++ {
		// One full rotation.
		for n, count := 0, s.count(); n < count; n++ {
			e := s.pop()
			if e == nil {
				return nil
			}
			if !e.backlogged() {
				e.active = false
				continue
			}
			if e.credit > 0 {
				// Leave the entry at the head so consecutive aggregates
				// go to the same station until its credit runs out.
				s.pushFront(e)
				return e
			}
			s.pushTail(e)
		}
		if s.head == nil {
			return nil
		}
		// Everyone backlogged is broke: replenish enough rounds that the
		// least indebted entry goes positive.
		best := sim.Time(-1 << 62)
		for e := s.head; e != nil; e = e.next {
			if e.credit > best {
				best = e.credit
			}
		}
		q := s.quantum()
		rounds := int((-best)/q) + 1
		for e := s.head; e != nil; e = e.next {
			e.credit += sim.Time(rounds) * q
			e.Rounds += rounds
		}
	}
	return nil
}

//hj17:hotpath
func (s *Scheduler) pushFront(e *Entry) {
	e.next = s.head
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Scheduler) count() int {
	n := 0
	for e := s.head; e != nil; e = e.next {
		n++
	}
	return n
}

// Charge bills wall-clock transmission time to e.
func (s *Scheduler) Charge(e *Entry, wall sim.Time) {
	e.credit -= wall
	e.Charged += wall
}

// Queued reports whether any entry is in rotation (for tests).
func (s *Scheduler) Queued() bool { return s.head != nil }
