package sched

import "repro/internal/sim"

// RoundRobin is the trivial per-station scheduler baseline: backlogged
// stations take strict turns building one aggregate each, with no
// airtime accounting at all. Compared against the deficit scheduler it
// isolates how much of the paper's §5 fairness gain comes from deficit
// accounting versus mere per-station scheduling — round-robin equalises
// transmission opportunities, so slow stations still consume far more
// than an equal airtime share.
type RoundRobin struct{ rot list }

// NewRoundRobin returns the round-robin baseline scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Activate implements StationScheduler.
//
//hj17:hotpath
func (r *RoundRobin) Activate(e *Entry) {
	if !e.listed {
		r.rot.pushTail(e)
	}
}

// Next implements StationScheduler: the first backlogged station in the
// rotation gets one turn and moves to the tail. Stations whose backlog
// has drained leave the rotation (they re-enter via Activate).
//
//hj17:hotpath
func (r *RoundRobin) Next() *Entry {
	for e := r.rot.popHead(); e != nil; e = r.rot.popHead() {
		if e.Owner.Backlogged() {
			r.rot.pushTail(e)
			return e
		}
	}
	return nil
}

// ChargeTx implements StationScheduler; round-robin keeps no accounts.
//
//hj17:hotpath
func (r *RoundRobin) ChargeTx(*Entry, sim.Time, sim.Time) {}

// ChargeRx implements StationScheduler; round-robin keeps no accounts.
//
//hj17:hotpath
func (r *RoundRobin) ChargeRx(*Entry, sim.Time) {}
