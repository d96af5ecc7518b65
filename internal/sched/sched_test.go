package sched

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// sta is an entry's owner with a switchable backlog flag.
type sta struct {
	*Entry
	on   bool
	name string
}

// Backlogged implements Owner.
func (st *sta) Backlogged() bool { return st.on }

// add activates a backlogged station on s.
func add(s StationScheduler) *sta {
	st := &sta{on: true}
	st.Entry = &Entry{Owner: st}
	s.Activate(st.Entry)
	return st
}

// always is an Owner that is always backlogged.
type always struct{}

// Backlogged implements Owner.
func (always) Backlogged() bool { return true }

// queued counts the entries on s's lists.
func queued(s StationScheduler) int {
	switch s := s.(type) {
	case *Airtime:
		return s.newL.len() + s.oldL.len()
	case *DTT:
		return s.rot.len()
	case *RoundRobin:
		return s.rot.len()
	}
	panic("unknown policy")
}

var policies = []struct {
	name string
	new  func() StationScheduler
}{
	{"Airtime", func() StationScheduler { return NewAirtime(DefaultQuantum, true) }},
	{"Airtime-nosparse", func() StationScheduler { return NewAirtime(DefaultQuantum, false) }},
	{"Weighted-Airtime", func() StationScheduler { return NewWeightedAirtime(DefaultQuantum, true) }},
	{"DTT", func() StationScheduler { return NewDTT(DefaultQuantum) }},
	{"RoundRobin", func() StationScheduler { return NewRoundRobin() }},
}

// TestSingleStation: under every policy a lone backlogged station keeps
// the turn while it has credit and leaves every list once it drains.
func TestSingleStation(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			s := p.new()
			a := add(s)
			if s.Next() != a.Entry {
				t.Fatal("single station not scheduled")
			}
			s.ChargeTx(a.Entry, 100*sim.Microsecond, 100*sim.Microsecond)
			if s.Next() != a.Entry {
				t.Fatal("station with credit lost the turn")
			}
			a.on = false
			if s.Next() != nil {
				t.Fatal("empty station still scheduled")
			}
			if a.listed || queued(s) != 0 {
				t.Fatalf("drained station still listed (%d queued)", queued(s))
			}
		})
	}
}

// TestActivateIdempotent: activating a listed entry again never lists it
// twice, so a drained station leaves no stale entry behind.
func TestActivateIdempotent(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			s := p.new()
			a := add(s)
			s.Activate(a.Entry)
			s.Activate(a.Entry)
			if n := queued(s); n != 1 {
				t.Fatalf("%d list entries after repeated Activate, want 1", n)
			}
			if s.Next() != a.Entry {
				t.Fatal("station lost")
			}
			a.on = false
			if s.Next() != nil || queued(s) != 0 {
				t.Fatal("duplicate activation left a stale entry")
			}
		})
	}
}

// TestZeroQuantumDefaults: a newly activated entry starts with one
// quantum, here DefaultQuantum, which mac.Config.fill puts in place of a
// zero AirtimeQuantum before any scheduler is built.
func TestZeroQuantumDefaults(t *testing.T) {
	for _, s := range []StationScheduler{NewAirtime(DefaultQuantum, true), NewWeightedAirtime(DefaultQuantum, false), NewDTT(DefaultQuantum)} {
		if a := add(s); a.balance != DefaultQuantum {
			t.Fatalf("%T: balance = %v, want the default quantum", s, a.balance)
		}
	}
}

// TestAirtimeFairnessLongRun: three stations with different per-aggregate
// durations converge to equal airtime.
func TestAirtimeFairnessLongRun(t *testing.T) {
	s := NewAirtime(DefaultQuantum, true)
	durs := []sim.Time{300 * sim.Microsecond, 1600 * sim.Microsecond, 3800 * sim.Microsecond}
	stas := []*sta{add(s), add(s), add(s)}
	total := make([]sim.Time, 3)
	for round := 0; round < 20000; round++ {
		e := s.Next()
		if e == nil {
			t.Fatal("no station scheduled")
		}
		for i, st := range stas {
			if e == st.Entry {
				s.ChargeTx(e, durs[i], 0)
				total[i] += durs[i]
			}
		}
	}
	sum := total[0] + total[1] + total[2]
	for i, tt := range total {
		if share := float64(tt) / float64(sum); share < 0.30 || share > 0.37 {
			t.Errorf("station %d airtime share %.3f, want ~1/3", i, share)
		}
	}
}

// TestDeficitRecovery: a station deep in deficit recovers one quantum per
// round while its peer is served, then gets the turn back.
func TestDeficitRecovery(t *testing.T) {
	s := NewAirtime(100*sim.Microsecond, true)
	a := add(s)
	b := add(s)
	if s.Next() != a.Entry {
		t.Fatal("expected a first")
	}
	s.ChargeTx(a.Entry, 1000*sim.Microsecond, 0) // deficit -900µs
	bCount, aBack := 0, false
	for i := 0; i < 30; i++ {
		e := s.Next()
		if e == b.Entry {
			bCount++
		} else {
			aBack = true
		}
		s.ChargeTx(e, 100*sim.Microsecond, 0)
	}
	if bCount < 15 {
		t.Errorf("b scheduled only %d of 30 while a in deficit", bCount)
	}
	if !aBack {
		t.Error("a never recovered from its deficit")
	}
}

// TestSparseStationPriority: a newly active station jumps ahead of
// existing old-list stations for one round.
func TestSparseStationPriority(t *testing.T) {
	s := NewAirtime(DefaultQuantum, true)
	bulk := add(s)
	s.ChargeTx(s.Next(), 10*sim.Millisecond, 0) // deficit goes negative
	s.Next()                                    // replenish + rotate to old
	if s.oldL.head != bulk.Entry || s.newL.head != nil {
		t.Fatal("bulk station not rotated onto the old list")
	}
	sparse := add(s)
	if s.Next() != sparse.Entry {
		t.Fatal("sparse station did not get priority")
	}
	if s.newL.head != sparse.Entry {
		t.Error("sparse station not served from the new list")
	}
}

// TestSparseAntiGaming: a sparse station that empties moves to the old
// list; reactivating immediately must not re-grant new-list priority.
func TestSparseAntiGaming(t *testing.T) {
	s := NewAirtime(DefaultQuantum, true)
	bulk := add(s)
	s.ChargeTx(s.Next(), 10*sim.Millisecond, 0)
	s.Next() // bulk rotates to the old list, gets fresh quanta

	sparse := add(s)
	if s.Next() != sparse.Entry {
		t.Fatal("sparse priority missing")
	}
	sparse.on = false // transmitted its only frame
	if s.Next() != bulk.Entry {
		t.Fatal("bulk not served after the sparse station emptied")
	}
	if s.newL.head != nil || s.oldL.tail != sparse.Entry {
		t.Fatal("emptied sparse station did not move to the old list's tail")
	}
	sparse.on = true
	s.Activate(sparse.Entry) // no-op: already listed
	for i := 0; i < 4; i++ {
		e := s.Next()
		if s.newL.head != nil {
			t.Fatal("anti-gaming violated: station re-entered the new list")
		}
		s.ChargeTx(e, 2*sim.Millisecond, 0)
	}
}

// TestSparseOptDisabled: with the optimisation off, new stations join the
// old list directly and wait behind a station that still has deficit.
func TestSparseOptDisabled(t *testing.T) {
	s := NewAirtime(DefaultQuantum, false)
	bulk := add(s)
	if s.Next() != bulk.Entry {
		t.Fatal("bulk missing")
	}
	sparse := add(s)
	if s.newL.head != nil || s.oldL.tail != sparse.Entry {
		t.Fatal("new station did not join the old list")
	}
	if s.Next() != bulk.Entry {
		t.Fatal("sparse jumped the queue with optimisation disabled")
	}
}

// TestRxChargingAffectsSchedule: airtime charged for received frames
// pushes a station behind its peers (§3.2 advantage 2).
func TestRxChargingAffectsSchedule(t *testing.T) {
	s := NewAirtime(DefaultQuantum, true)
	up := add(s)
	down := add(s)
	s.ChargeRx(up.Entry, 50*sim.Millisecond)
	if want := DefaultQuantum - 50*sim.Millisecond; up.balance != want {
		t.Fatalf("deficit after ChargeRx = %v, want %v", up.balance, want)
	}
	served := map[*Entry]int{}
	for i := 0; i < 40; i++ {
		e := s.Next()
		served[e]++
		s.ChargeTx(e, sim.Millisecond, 0)
	}
	if served[down.Entry] <= served[up.Entry] {
		t.Errorf("rx charging ignored: down=%d up=%d", served[down.Entry], served[up.Entry])
	}
}

// TestAirtimeChargesAirNotWall: Next returns the activated entry itself,
// and ChargeTx bills the true airtime, never the wall-clock duration.
func TestAirtimeChargesAirNotWall(t *testing.T) {
	s := NewAirtime(DefaultQuantum, true)
	a := add(s)
	add(s)
	if s.Next() != a.Entry {
		t.Fatal("Next did not return the first activated entry")
	}
	before := a.balance
	s.ChargeTx(a.Entry, 100*sim.Microsecond, 5*sim.Millisecond)
	if d := before - a.balance; d != 100*sim.Microsecond {
		t.Fatalf("deficit moved by %v, want the air duration 100µs", d)
	}
}

// TestWeightedAirtimeShares: with a 2:1 weight ratio the weighted
// scheduler grants the heavy station about twice the airtime.
func TestWeightedAirtimeShares(t *testing.T) {
	s := NewWeightedAirtime(DefaultQuantum, false)
	heavy := &Entry{Owner: always{}}
	light := &Entry{Owner: always{}}
	heavy.Weight = 2
	s.Activate(heavy)
	s.Activate(light)

	var served [2]sim.Time
	cost := 150 * sim.Microsecond
	for i := 0; i < 4000; i++ {
		e := s.Next()
		if e == nil {
			t.Fatal("scheduler ran dry with permanent backlog")
		}
		if e == heavy {
			served[0] += cost
		} else {
			served[1] += cost
		}
		s.ChargeTx(e, cost, cost)
	}
	if ratio := float64(served[0]) / float64(served[1]); ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("airtime ratio heavy/light = %.2f, want ~2", ratio)
	}
}

// TestPlainAirtimeIgnoresWeights: the unweighted scheduler never reads
// Entry.Weight, so the paper's scheme cannot be skewed accidentally.
func TestPlainAirtimeIgnoresWeights(t *testing.T) {
	s := NewAirtime(DefaultQuantum, false)
	e1 := &Entry{Owner: always{}}
	e2 := &Entry{Owner: always{}}
	e1.Weight = 8
	s.Activate(e1)
	s.Activate(e2)

	var served [2]int
	cost := 150 * sim.Microsecond
	for i := 0; i < 2000; i++ {
		e := s.Next()
		if e == e1 {
			served[0]++
		} else {
			served[1]++
		}
		s.ChargeTx(e, cost, cost)
	}
	if diff := float64(served[0]-served[1]) / float64(served[0]+served[1]); diff > 0.05 || diff < -0.05 {
		t.Fatalf("plain airtime skewed by ignored weight: %d vs %d", served[0], served[1])
	}
}

// TestWeightBounds: CheckWeight accepts exactly [MinWeight, MaxWeight],
// and at both ends the weighted scheduler still earns credit every round,
// so Next returns instead of spinning.
func TestWeightBounds(t *testing.T) {
	for _, w := range []float64{MinWeight, 0.5, 1, 2, MaxWeight} {
		if err := CheckWeight(w); err != nil {
			t.Errorf("CheckWeight(%v) = %v, want nil", w, err)
		}
		s := NewWeightedAirtime(DefaultQuantum, true)
		a := &Entry{Owner: always{}}
		a.Weight = w
		s.Activate(a)
		s.ChargeTx(a, 4*sim.Millisecond, 0)
		if s.Next() != a || a.balance <= 0 {
			t.Errorf("weight %v: station did not recover its deficit", w)
		}
	}
	for _, w := range []float64{0, -1, MinWeight / 2, 1e-7, 257, 1e30, math.Inf(1), math.Inf(-1), math.NaN()} {
		if CheckWeight(w) == nil {
			t.Errorf("CheckWeight(%v) accepted", w)
		}
	}
}

// TestDTTBillsWallClock: DTT charges the wall-clock duration and ignores
// received airtime, per the original proposal.
func TestDTTBillsWallClock(t *testing.T) {
	s := NewDTT(DefaultQuantum)
	a := add(s)
	if s.Next() != a.Entry {
		t.Fatal("Next did not return the activated entry")
	}
	before := a.balance
	s.ChargeTx(a.Entry, 100*sim.Microsecond, 900*sim.Microsecond)
	if spent := before - a.balance; spent != 900*sim.Microsecond {
		t.Fatalf("DTT billed %v, want the wall-clock 900µs", spent)
	}
	s.ChargeRx(a.Entry, sim.Second)
	if a.balance != before-900*sim.Microsecond {
		t.Fatal("DTT accounted received airtime")
	}
}

// TestReplenishWhenBroke: when every backlogged entry is in debt, DTT
// adds the fewest whole quanta that make the least indebted one positive.
func TestReplenishWhenBroke(t *testing.T) {
	s := NewDTT(100 * sim.Microsecond)
	a := add(s)
	s.ChargeTx(a.Entry, 0, 500*sim.Microsecond) // credit -400µs
	if s.Next() != a.Entry {
		t.Fatal("station not rescheduled after replenish")
	}
	if a.balance != 100*sim.Microsecond {
		t.Fatalf("credit %v after replenishing, want 5 quanta bringing it to 100µs", a.balance)
	}
}

// TestEqualChargingFairness: DTT equalises the time it is billed across
// stations with different aggregate durations.
func TestEqualChargingFairness(t *testing.T) {
	s := NewDTT(DefaultQuantum)
	durs := []sim.Time{500 * sim.Microsecond, 2 * sim.Millisecond, 4 * sim.Millisecond}
	stas := []*sta{add(s), add(s), add(s)}
	total := make([]sim.Time, 3)
	for i := 0; i < 20000; i++ {
		e := s.Next()
		if e == nil {
			t.Fatal("nothing scheduled")
		}
		for j, st := range stas {
			if st.Entry == e {
				s.ChargeTx(e, 0, durs[j])
				total[j] += durs[j]
			}
		}
	}
	sum := total[0] + total[1] + total[2]
	for i, tt := range total {
		if share := float64(tt) / float64(sum); share < 0.30 || share > 0.37 {
			t.Errorf("station %d charged-time share %.3f, want ~1/3", i, share)
		}
	}
}

// TestRotationSkipsIdle: DTT skips an idle entry, which leaves the
// rotation until it is activated again.
func TestRotationSkipsIdle(t *testing.T) {
	s := NewDTT(DefaultQuantum)
	a := add(s)
	b := add(s)
	a.on = false
	if s.Next() != b.Entry {
		t.Fatal("idle station not skipped")
	}
	if a.listed {
		t.Fatal("idle station still in the rotation")
	}
	a.on = true
	s.Activate(a.Entry)
	s.ChargeTx(b.Entry, 0, 10*sim.Millisecond)
	if s.Next() != a.Entry {
		t.Fatal("reactivated station not scheduled while b is broke")
	}
}

// TestRoundRobinRotation: backlogged stations take strict turns, idle
// stations leave the rotation and re-enter on Activate.
func TestRoundRobinRotation(t *testing.T) {
	rr := NewRoundRobin()
	a, b, c := add(rr), add(rr), add(rr)
	a.name, b.name, c.name = "a", "b", "c"

	turns := func(n int) []string {
		var order []string
		for i := 0; i < n; i++ {
			order = append(order, rr.Next().Owner.(*sta).name)
		}
		return order
	}
	expect := func(got []string, want ...string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("turn %d = %q, want %q (order %v)", i, got[i], want[i], got)
			}
		}
	}
	expect(turns(6), "a", "b", "c", "a", "b", "c")

	// b drains: it leaves the rotation; a and c keep alternating.
	b.on = false
	expect(turns(4), "a", "c", "a", "c")

	// b becomes backlogged again and rejoins at the tail.
	b.on = true
	rr.Activate(b.Entry)
	expect(turns(3), "a", "c", "b")

	// Everyone idle: Next returns nil and the rotation empties.
	a.on, b.on, c.on = false, false, false
	if e := rr.Next(); e != nil {
		t.Fatalf("Next with no backlog = %v, want nil", e.Owner.(*sta).name)
	}
	if queued(rr) != 0 {
		t.Fatal("rotation not empty after universal drain")
	}
}
