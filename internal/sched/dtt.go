package sched

import "repro/internal/sim"

// DTT is the Deficit Transmission Time scheduler of Garroppo et al.
// ("Providing air-time usage fairness in IEEE 802.11 networks with the
// deficit transmission time (DTT) scheduler", Wireless Networks 13(4),
// 2007) — the closest previously proposed solution the paper compares
// its airtime scheduler against in §3.2 and §5.
//
// Each station holds a transmission-time token balance. Stations with a
// positive balance are served round-robin; when no backlogged station has
// credit, every balance is replenished by a fixed quantum. Faithful to
// the original proposal, it bills the wall-clock time from aggregate
// submission to completion — which includes time spent waiting for other
// stations and therefore over-charges under contention, the inaccuracy
// the paper's §3.2 calls out. There is no received-airtime accounting and
// no sparse-station optimisation.
type DTT struct {
	quantum sim.Time
	rot     list
}

// NewDTT returns the DTT comparison baseline with the given positive
// quantum.
func NewDTT(quantum sim.Time) *DTT { return &DTT{quantum: quantum} }

// Activate implements StationScheduler. Entries joining the rotation
// start with one quantum of credit.
//
//hj17:hotpath
func (d *DTT) Activate(e *Entry) {
	if e.listed {
		return
	}
	e.balance = d.quantum
	d.rot.pushTail(e)
}

// Next implements StationScheduler: the first backlogged entry in
// rotation order whose token balance is positive. When every backlogged
// entry is out of credit, balances are replenished in quantum rounds
// until one becomes positive (computed in one step). Entries whose
// backlog has drained leave the rotation.
//
//hj17:hotpath
func (d *DTT) Next() *Entry {
	for tries := 0; tries < 2; tries++ {
		// One full rotation.
		for n, count := 0, d.rot.len(); n < count; n++ {
			e := d.rot.popHead()
			if !e.Owner.Backlogged() {
				continue
			}
			if e.balance > 0 {
				// Leave the entry at the head so consecutive aggregates
				// go to the same station until its credit runs out.
				d.rot.pushFront(e)
				return e
			}
			d.rot.pushTail(e)
		}
		if d.rot.head == nil {
			return nil
		}
		// Everyone backlogged is broke: replenish enough rounds that the
		// least indebted entry goes positive.
		best := sim.Time(-1 << 62)
		for e := d.rot.head; e != nil; e = e.next {
			if e.balance > best {
				best = e.balance
			}
		}
		rounds := -best/d.quantum + 1
		for e := d.rot.head; e != nil; e = e.next {
			e.balance += rounds * d.quantum
		}
	}
	return nil
}

// ChargeTx implements StationScheduler; DTT bills the wall-clock
// transmission time, not the true airtime.
//
//hj17:hotpath
func (d *DTT) ChargeTx(e *Entry, _, wall sim.Time) { e.balance -= wall }

// ChargeRx implements StationScheduler; DTT only accounts transmissions
// it schedules.
//
//hj17:hotpath
func (d *DTT) ChargeRx(*Entry, sim.Time) {}
