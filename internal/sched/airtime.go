package sched

import "repro/internal/sim"

// Airtime is the paper's deficit airtime scheduler (§3.2, Algorithm 3).
//
// It is modelled on FQ-CoDel's deficit round-robin, with stations taking
// the place of flows and the deficit accounted in microseconds of airtime
// instead of bytes. The MAC charges every transmitted and received
// frame's true airtime against the owning station's deficit — the
// accuracy improvement over DTT — and Next decides which station builds
// the next aggregate.
//
// With the sparse-station optimisation (advantage 3 in §3.2), a station
// that was completely idle enters the new-stations list and gets priority
// for one scheduling round, with the same anti-gaming rule as FQ-CoDel's
// sparse-flow mechanism: on emptying it moves to the old list, so it
// cannot bounce between idle and priority.
//
// The weighted variant scales each station's per-round replenishment by
// its Entry.Weight (the policy knob the ath9k implementation exposes);
// the plain variant ignores weights, so the paper's scheme cannot be
// skewed by weights configured on stations.
type Airtime struct {
	quantum   sim.Time
	sparseOpt bool
	weighted  bool

	newL, oldL list
}

// NewAirtime returns the paper's airtime scheduler with the given
// positive quantum and sparse-station optimisation setting.
func NewAirtime(quantum sim.Time, sparseOpt bool) *Airtime {
	return &Airtime{quantum: quantum, sparseOpt: sparseOpt}
}

// NewWeightedAirtime returns the airtime scheduler with the per-station
// weight knob enabled: Entry.Weight scales a station's deficit
// replenishment, giving it a proportionally larger or smaller airtime
// share.
func NewWeightedAirtime(quantum sim.Time, sparseOpt bool) *Airtime {
	a := NewAirtime(quantum, sparseOpt)
	a.weighted = true
	return a
}

// replenish is the deficit e earns per round.
//
//hj17:hotpath
func (a *Airtime) replenish(e *Entry) sim.Time {
	if !a.weighted || e.Weight <= 0 || e.Weight == 1 {
		return a.quantum
	}
	return sim.Time(float64(a.quantum) * e.Weight)
}

// Activate implements StationScheduler. A newly backlogged station starts
// with one round's deficit on the new-stations list when the sparse
// optimisation is on, the old list otherwise.
//
//hj17:hotpath
func (a *Airtime) Activate(e *Entry) {
	if e.listed {
		return
	}
	e.balance = a.replenish(e)
	if a.sparseOpt {
		a.newL.pushTail(e)
	} else {
		a.oldL.pushTail(e)
	}
}

// Next implements StationScheduler, applying Algorithm 3's deficit and
// list rotation rules. The chosen station stays at the head of its list,
// so it keeps the turn until its deficit is exhausted or its queue
// empties.
//
//hj17:hotpath
func (a *Airtime) Next() *Entry {
	for {
		l := &a.newL
		if l.head == nil {
			l = &a.oldL
		}
		e := l.head
		if e == nil {
			return nil
		}
		if e.balance <= 0 {
			e.balance += a.replenish(e)
			l.popHead()
			a.oldL.pushTail(e)
			continue
		}
		if !e.Owner.Backlogged() {
			l.popHead()
			if l == &a.newL {
				// Anti-gaming rule: an emptying sparse station moves to
				// the old list rather than leaving the scheduler, so it
				// cannot re-enter the priority list immediately.
				a.oldL.pushTail(e)
			}
			continue
		}
		return e
	}
}

// ChargeTx implements StationScheduler; the wall-clock duration is
// ignored, only true airtime counts.
//
//hj17:hotpath
func (a *Airtime) ChargeTx(e *Entry, air, _ sim.Time) { e.balance -= air }

// ChargeRx implements StationScheduler. Accounting received frames lets
// the scheduler partially compensate for upstream traffic it cannot
// directly control (§4.1.2).
//
//hj17:hotpath
func (a *Airtime) ChargeRx(e *Entry, air sim.Time) { e.balance -= air }
