package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie above a reported tail percentile;
// fewer and the percentile is just the largest few samples.
const minTail = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method). One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// tailPercentile returns the q-quantile (0.5 < q < 1) of xs by nearest
// rank. It refuses when fewer than minTail samples lie above it.
func tailPercentile(xs []float64, q float64) (float64, error) {
	if q <= 0.5 || q >= 1 {
		return 0, fmt.Errorf("percentile %g is not a tail percentile", q)
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 || len(s)-1-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d above it, want at least %d",
			100*q, len(s), len(s)-1-rank, minTail)
	}
	return s[rank], nil
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
