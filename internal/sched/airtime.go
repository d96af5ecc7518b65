package sched

import (
	"repro/internal/airtime"
	"repro/internal/sim"
)

// Airtime adapts the paper's deficit airtime scheduler (§3.2,
// Algorithm 3) to the StationScheduler interface. It charges actual
// airtime in both directions — the accuracy improvement over DTT — and,
// when Weighted is set, scales each station's per-round deficit
// replenishment by its weight.
type Airtime struct {
	inner *airtime.Scheduler
	// weighted enables the per-station weight knob; the plain Airtime
	// scheme keeps it off so weights set on stations have no effect.
	weighted bool
	owner    map[*airtime.Station]*Entry
}

// NewAirtime returns the paper's airtime scheduler with the given quantum
// (0 = default) and sparse-station optimisation setting.
func NewAirtime(quantum sim.Time, sparseOpt bool) *Airtime {
	return &Airtime{
		inner: &airtime.Scheduler{Quantum: quantum, SparseOpt: sparseOpt},
		owner: make(map[*airtime.Station]*Entry),
	}
}

// NewWeightedAirtime returns the airtime scheduler with the per-station
// weight knob enabled (SetWeight scales a station's deficit
// replenishment, giving it a proportionally larger or smaller airtime
// share).
func NewWeightedAirtime(quantum sim.Time, sparseOpt bool) *Airtime {
	a := NewAirtime(quantum, sparseOpt)
	a.weighted = true
	return a
}

func (a *Airtime) station(e *Entry) *airtime.Station { return e.impl.(*airtime.Station) }

// Register implements StationScheduler.
func (a *Airtime) Register(backlogged func() bool) *Entry {
	st := &airtime.Station{Backlogged: backlogged}
	e := &Entry{impl: st}
	a.owner[st] = e
	return e
}

// Activate implements StationScheduler.
func (a *Airtime) Activate(e *Entry) { a.inner.Activate(a.station(e)) }

// Next implements StationScheduler.
func (a *Airtime) Next() *Entry {
	st := a.inner.Next()
	if st == nil {
		return nil
	}
	return a.owner[st]
}

// ChargeTx implements StationScheduler; the wall-clock duration is
// ignored, only true airtime counts.
func (a *Airtime) ChargeTx(e *Entry, air, _ sim.Time) {
	a.inner.ChargeTx(a.station(e), air)
}

// ChargeRx implements StationScheduler.
func (a *Airtime) ChargeRx(e *Entry, air sim.Time) {
	a.inner.ChargeRx(a.station(e), air)
}

// SetWeight implements Weighted. On a plain (unweighted) Airtime
// scheduler it is a no-op, so the paper's scheme is unaffected by weights
// configured on stations.
func (a *Airtime) SetWeight(e *Entry, weight float64) {
	if !a.weighted {
		return
	}
	a.station(e).Weight = weight
}
