package stats

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

func TestWelfordMatchesNaive(t *testing.T) {
	r := sim.NewRand(11)
	var w Welford
	var xs []float64
	for i := 0; i < 5000; i++ {
		x := r.Float64()*100 - 20
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("Welford mean %v vs naive %v", w.Mean(), mean)
	}
	if math.Abs(w.Stddev()-sd) > 1e-9 {
		t.Fatalf("Welford stddev %v vs naive %v", w.Stddev(), sd)
	}
}

func TestWelfordMerge(t *testing.T) {
	r := sim.NewRand(3)
	var whole, a, b Welford
	for i := 0; i < 4000; i++ {
		x := r.Expo(7)
		whole.Add(x)
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N=%d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 ||
		math.Abs(a.Stddev()-whole.Stddev()) > 1e-9 {
		t.Fatalf("merge diverged: mean %v vs %v, sd %v vs %v",
			a.Mean(), whole.Mean(), a.Stddev(), whole.Stddev())
	}
	// Merging into an empty accumulator copies.
	var empty Welford
	empty.Merge(whole)
	if empty.N() != whole.N() || empty.Mean() != whole.Mean() {
		t.Fatal("merge into empty lost state")
	}
}

// exactRef is the exact reference the streaming layer is checked
// against: every observation kept, quantiles by linear interpolation
// over the sorted values, as an unspilled Sample computes them.
type exactRef []float64

func (e exactRef) quantile(q float64) float64 {
	xs := slices.Clone(e)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func (e exactRef) mean() float64 {
	var sum float64
	for _, x := range e {
		sum += x
	}
	return sum / float64(len(e))
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	r := sim.NewRand(5)
	var st Stream
	var exact exactRef
	for i := 0; i < 200000; i++ {
		x := r.Expo(25) // ms-scale latencies
		st.Add(x)
		exact = append(exact, x)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		want := exact.quantile(q)
		got := st.Quantile(q)
		rel := math.Abs(got-want) / want
		if rel > 0.05 {
			t.Fatalf("q=%v: stream %v vs exact %v (rel err %.3f)", q, got, want, rel)
		}
	}
	if st.Min() != slices.Min(exact) || st.Max() != slices.Max(exact) {
		t.Fatal("stream min/max not exact")
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(-3)
	h.Add(1e-9) // underflow bucket
	h.Add(1e15) // overflow bucket
	if h.N() != 4 {
		t.Fatalf("N=%d, want 4", h.N())
	}
	if q := h.Quantile(0); q < 0 {
		t.Fatalf("underflow quantile negative: %v", q)
	}
	if q := h.Quantile(1); q <= 0 {
		t.Fatalf("overflow quantile not positive: %v", q)
	}
}

// TestSampleSpills: past ExactCap a sample seals into fixed memory and
// keeps answering with bounded-error quantiles and exact mean/min/max
// tracking via the stream.
func TestSampleSpills(t *testing.T) {
	r := sim.NewRand(9)
	var s Sample
	var exact exactRef
	n := 3 * ExactCap
	for i := 0; i < n; i++ {
		x := 1 + r.Float64()*99
		s.Add(x)
		exact = append(exact, x)
	}
	if !s.Spilled() {
		t.Fatal("sample did not spill past the cap")
	}
	if s.Values() != nil {
		t.Fatal("spilled sample still exposes raw values")
	}
	if s.N() != n {
		t.Fatalf("N=%d, want %d", s.N(), n)
	}
	if s.Min() != slices.Min(exact) || s.Max() != slices.Max(exact) {
		t.Fatal("spilled min/max not exact")
	}
	if math.Abs(s.Mean()-exact.mean()) > 1e-6 {
		t.Fatalf("spilled mean %v vs exact %v", s.Mean(), exact.mean())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := exact.quantile(q)
		if rel := math.Abs(s.Quantile(q)-want) / want; rel > 0.05 {
			t.Fatalf("q=%v: %v vs exact %v", q, s.Quantile(q), want)
		}
	}
	if got := s.Summary(); got == "" {
		t.Fatal("empty summary")
	}
	if cdf := s.CDF(11); len(cdf) != 11 {
		t.Fatalf("spilled CDF has %d points", len(cdf))
	}
}

// TestSampleExactBelowCap: behaviour below the cap is bit-identical to
// the historical slice-backed implementation (the property the golden
// artifact hashes rely on).
func TestSampleExactBelowCap(t *testing.T) {
	r := sim.NewRand(2)
	var s Sample
	xs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		x := r.Expo(3)
		s.Add(x)
		xs = append(xs, x)
	}
	if s.Spilled() {
		t.Fatal("spilled below cap")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if s.Mean() != sum/float64(len(xs)) {
		t.Fatal("mean not bit-identical to naive sum")
	}
}

func TestSampleMergeSpillPaths(t *testing.T) {
	big := func(n int, seed uint64) *Sample {
		r := sim.NewRand(seed)
		var s Sample
		for i := 0; i < n; i++ {
			s.Add(r.Float64() * 10)
		}
		return &s
	}
	// exact + exact overflowing the cap -> spills, N preserved.
	a := big(ExactCap-100, 1)
	b := big(300, 2)
	a.Merge(b)
	if !a.Spilled() || a.N() != ExactCap+200 {
		t.Fatalf("overflowing merge: spilled=%v n=%d", a.Spilled(), a.N())
	}
	// exact + spilled -> spills.
	c := big(10, 3)
	d := big(2*ExactCap, 4)
	c.Merge(d)
	if !c.Spilled() || c.N() != 10+2*ExactCap {
		t.Fatalf("exact+spilled merge: n=%d", c.N())
	}
	// spilled + exact and spilled + spilled.
	d2 := big(2*ExactCap, 5)
	d2.Merge(big(50, 6))
	d2.Merge(big(2*ExactCap, 7))
	if d2.N() != 4*ExactCap+50 {
		t.Fatalf("spilled merges: n=%d", d2.N())
	}
}

// TestSampleSortCaching is the regression test for quantile-query
// caching: repeated Quantile/Median/Min/Max calls must sort once, and
// Add/Merge must invalidate the cache.
func TestSampleSortCaching(t *testing.T) {
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(float64(99 - i))
	}
	s.Median()
	s.Quantile(0.9)
	s.Min()
	s.Max()
	if s.sorts != 1 {
		t.Fatalf("%d sorts for repeated queries, want 1 (cache broken)", s.sorts)
	}
	s.Add(1000)
	if got := s.Max(); got != 1000 {
		t.Fatalf("Max after Add = %v (cache not invalidated)", got)
	}
	if s.sorts != 2 {
		t.Fatalf("%d sorts after invalidating Add, want 2", s.sorts)
	}
	var o Sample
	o.Add(-5)
	s.Merge(&o)
	if got := s.Min(); got != -5 {
		t.Fatalf("Min after Merge = %v (cache not invalidated)", got)
	}
	if s.sorts != 3 {
		t.Fatalf("%d sorts after invalidating Merge, want 3", s.sorts)
	}
}
