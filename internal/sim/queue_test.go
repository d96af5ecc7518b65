package sim

import (
	"sort"
	"testing"
)

// TestCancelThenRescheduleStaleRef pins the Cancel-then-reschedule hazard
// of lazy cancellation: after a cancelled event's object is recycled into
// a new schedule, the stale ref must not be able to cancel (or observe)
// the new event, because recycling bumped the generation.
func TestCancelThenRescheduleStaleRef(t *testing.T) {
	s := New(1)

	stale := s.At(5, func() { t.Fatal("cancelled event fired") })
	s.Cancel(stale)
	if stale.Scheduled() {
		t.Fatal("cancelled ref still reports scheduled")
	}

	// The dead event is recycled lazily, when it surfaces at the queue
	// head. Run past its deadline to force the recycle.
	s.At(6, func() {})
	s.Run(0)
	if got := s.allocated; got != 2 {
		t.Fatalf("allocated %d events, want 2", got)
	}

	// The next schedule must reuse the recycled object under a bumped
	// generation.
	fired := false
	fresh := s.At(10, func() { fired = true })
	if s.allocated != 2 {
		t.Fatal("reschedule did not reuse the recycled event object")
	}

	// The stale ref's accessors and Cancel must all be no-ops against
	// the recycled object.
	if stale.Scheduled() {
		t.Fatal("stale ref reports the recycled event as its own")
	}
	if stale.Time() != 0 {
		t.Fatalf("stale ref Time() = %v, want 0", stale.Time())
	}
	s.Cancel(stale)
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	s.Run(0)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestCancelSameInstantContinuation: an event scheduled for the instant
// being drained must still be cancellable by an earlier event of the
// same instant.
func TestCancelSameInstantContinuation(t *testing.T) {
	s := New(1)
	var doomed EventRef
	fired := false
	s.At(5, func() {
		doomed = s.After(0, func() { fired = true })
		if !doomed.Scheduled() {
			t.Fatal("same-instant event not scheduled")
		}
	})
	s.At(5, func() { s.Cancel(doomed) })
	s.Run(0)
	if fired {
		t.Fatal("event cancelled within its instant still fired")
	}
}

// TestSameInstantScheduleOrder: events a callback schedules for the very
// instant being drained fire within that instant, after every event of
// the instant that was scheduled earlier.
func TestSameInstantScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(5, func() {
		got = append(got, 0)
		s.After(0, func() {
			got = append(got, 2)
			s.At(5, func() { got = append(got, 3) })
		})
	})
	s.At(5, func() { got = append(got, 1) })
	s.At(7, func() { got = append(got, 4) })
	s.Run(0)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestSameInstantFIFOInvariant: many events at one instant, scheduled in
// interleaved order with other instants, fire in exact schedule order.
func TestSameInstantFIFOInvariant(t *testing.T) {
	s := New(1)
	const n = 200
	var got []int
	for i := 0; i < n; i++ {
		i := i
		// Interleave later instants of the same wheel slot, so each
		// same-time event is inserted ahead of later ones already there.
		s.At(10, func() { got = append(got, i) })
		s.At(Time(20+i), func() {})
	}
	s.Run(0)
	if len(got) != n {
		t.Fatalf("fired %d events at the shared instant, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order at %d: got %d", i, v)
		}
	}
}

// TestRandomizedOrderingWithCancels is the property-style workout: a
// randomized (time, seq) workload with interleaved cancels must pop in
// exactly the order of a reference sort of the surviving events.
func TestRandomizedOrderingWithCancels(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		s := New(seed)

		type ev struct {
			at        Time
			seq       int // schedule order
			cancelled bool
		}
		var evs []*ev
		var refs []EventRef
		var fired []int

		const n = 500
		for i := 0; i < n; i++ {
			at := Time(r.Intn(50)) // dense times force same-instant ties
			e := &ev{at: at, seq: i}
			evs = append(evs, e)
			seq := i
			refs = append(refs, s.At(at, func() { fired = append(fired, seq) }))

			// Interleave cancels of random earlier events.
			if r.Intn(4) == 0 {
				victim := r.Intn(len(refs))
				if !evs[victim].cancelled {
					s.Cancel(refs[victim])
					evs[victim].cancelled = true
				}
			}
		}
		s.Run(0)

		var want []int
		var surviving []*ev
		for _, e := range evs {
			if !e.cancelled {
				surviving = append(surviving, e)
			}
		}
		sort.SliceStable(surviving, func(i, j int) bool {
			if surviving[i].at != surviving[j].at {
				return surviving[i].at < surviving[j].at
			}
			return surviving[i].seq < surviving[j].seq
		})
		for _, e := range surviving {
			want = append(want, e.seq)
		}

		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: pop order diverges from reference sort at %d: got seq %d, want %d",
					seed, i, fired[i], want[i])
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events still pending after Run", seed, s.Pending())
		}
	}
}

// TestPendingCountsLiveOnly: Pending must track live events through lazy
// cancellation (dead events awaiting recycling are not pending).
func TestPendingCountsLiveOnly(t *testing.T) {
	s := New(1)
	a := s.At(10, func() {})
	s.At(20, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Cancel(a)
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1 (dead event must not count)", s.Pending())
	}
	s.Run(0)
	if s.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", s.Pending())
	}
}

// TestRunMaxEventsMidInstant: exhausting the event budget in the middle
// of an instant must preserve exact order when the run resumes.
func TestRunMaxEventsMidInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(3) // stop mid-instant
	if len(got) != 3 {
		t.Fatalf("ran %d events under budget 3", len(got))
	}
	s.Run(0) // resume
	for i, v := range got {
		if v != i {
			t.Fatalf("resume broke same-instant order: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events total, want 10", len(got))
	}
}

// TestRunMaxEventsMidContinuations: the budget can also expire among the
// zero-delay continuations a callback scheduled for the instant being
// drained; the remainder must still fire in order on resume.
func TestRunMaxEventsMidContinuations(t *testing.T) {
	s := New(1)
	var got []int
	s.At(5, func() {
		got = append(got, 0)
		for i := 1; i <= 5; i++ {
			i := i
			s.After(0, func() { got = append(got, i) })
		}
	})
	s.Run(3) // budget expires among the continuations
	if len(got) != 3 {
		t.Fatalf("ran %d events under budget 3", len(got))
	}
	s.Run(0)
	want := []int{0, 1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// BenchmarkScheduleFire measures the queue's round trip: one schedule
// and one dispatch per event in steady state.
func BenchmarkScheduleFire(b *testing.B) {
	s := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		s.After(10, tick)
	}
	s.After(10, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(uint64(b.N))
}

// BenchmarkCancel measures lazy cancellation: schedule-then-cancel, with
// the dead events reclaimed as they surface.
func BenchmarkCancel(b *testing.B) {
	s := New(1)
	var keep func()
	keep = func() { s.After(10, keep) }
	s.After(10, keep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.At(s.Now()+100, func() {})
		s.Cancel(r)
		if i%64 == 0 {
			s.RunUntil(s.Now() + 1)
		}
	}
}
