package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in Python.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %g, want 0", m)
	}
}

func TestTailPercentileNeedsTenAbove(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := tailPercentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", v, err)
	}
	// p95 of 100 samples has only 5 above it.
	if _, err := tailPercentile(xs, 0.95); err == nil {
		t.Error("p95 of 100 samples accepted with 5 samples above it")
	}
	// 100 samples are the fewest that leave ten above p90.
	if _, err := tailPercentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	if _, err := tailPercentile(xs, 0.5); err == nil {
		t.Error("the median was accepted as a tail percentile")
	}
}
