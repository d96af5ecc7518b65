package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10, func() { fired = true })
	if !e.Scheduled() {
		t.Fatal("fresh event not scheduled")
	}
	s.Cancel(e)
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
	// Double cancel and cancelling the zero ref are no-ops.
	s.Cancel(e)
	s.Cancel(EventRef{})
}

func TestCancelDuringRun(t *testing.T) {
	s := New(1)
	var e2 EventRef
	fired := false
	s.At(1, func() { s.Cancel(e2) })
	e2 = s.At(2, func() { fired = true })
	s.Run(0)
	if fired {
		t.Fatal("event cancelled from another event still fired")
	}
}

// TestStaleRefCancelIsNoop: a ref whose event has fired and been recycled
// into a new event must not cancel the new event.
func TestStaleRefCancelIsNoop(t *testing.T) {
	s := New(1)
	stale := s.At(1, func() {})
	s.Step() // fires and recycles the event object
	fired := false
	fresh := s.At(2, func() { fired = true })
	s.Cancel(stale) // stale generation: must not touch the recycled event
	if !fresh.Scheduled() {
		t.Fatal("stale cancel killed a recycled event")
	}
	s.Run(0)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestEventRecycling: steady-state scheduling reuses Event objects
// instead of allocating.
func TestEventRecycling(t *testing.T) {
	s := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 1000 {
			s.After(10, tick)
		}
	}
	s.After(10, tick)
	s.Run(0)
	if got := s.allocated; got > 4 {
		t.Fatalf("allocated %d events for a serial chain, want <= 4", got)
	}
}

// TestAtCall: the closure-free scheduling form passes its argument
// through and interleaves with At in seq order.
func TestAtCall(t *testing.T) {
	s := New(1)
	var got []int
	push := func(v any) { got = append(got, v.(int)) }
	s.AtCall(5, push, 1)
	s.At(5, func() { got = append(got, 2) })
	s.AfterCall(5, push, 3)
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AtCall ordering wrong: %v", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	n := 0
	s.At(10, func() { n++ })
	s.At(20, func() { n++ })
	s.At(30, func() { n++ })
	s.RunUntil(25)
	if n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-5, func() { fired = true })
	s.Step()
	if !fired || s.Now() != 0 {
		t.Fatalf("After(-5) mishandled: fired=%v now=%v", fired, s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	n := 0
	var stop func()
	stop = s.Ticker(10, func() {
		n++
		if n == 5 {
			stop()
		}
	})
	s.RunUntil(1000)
	if n != 5 {
		t.Fatalf("ticker fired %d times, want 5", n)
	}
}

func TestTickerCadence(t *testing.T) {
	s := New(1)
	var times []Time
	stop := s.Ticker(7, func() { times = append(times, s.Now()) })
	s.RunUntil(35)
	stop()
	want := []Time{7, 14, 21, 28, 35}
	if len(times) != len(want) {
		t.Fatalf("fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(1500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("Duration conversion wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds wrong")
	}
	if (1500 * Microsecond).Millis() != 1.5 {
		t.Fatal("Millis wrong")
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Fatal("Micros wrong")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		var out []Time
		for i := 0; i < 100; i++ {
			d := Time(s.Rand().Intn(1000))
			s.After(d, func() { out = append(out, s.Now()) })
		}
		s.Run(0)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnUniform(t *testing.T) {
	r := NewRand(3)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Intn(8)]++
	}
	for v, c := range counts {
		if c < n/8-n/50 || c > n/8+n/50 {
			t.Fatalf("Intn skewed: bucket %d has %d of %d", v, c, n)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpoMean(t *testing.T) {
	r := NewRand(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Expo(10)
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("Expo mean = %v, want ~10", mean)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := NewRand(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(9)
	base := Time(1000)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.25)
		if j < -250 || j > 250 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
}
