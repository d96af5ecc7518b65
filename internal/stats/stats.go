// Package stats provides the statistical machinery the evaluation uses:
// sample collections with quantiles and CDFs, Jain's fairness index, and
// streaming mean/variance accumulators.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ExactCap is the number of raw observations a Sample retains before it
// seals itself into the fixed-memory streaming layer (a Welford
// accumulator plus a log-bucketed histogram). Below the cap every
// statistic is exact and byte-identical to the historical slice-backed
// implementation — which is what keeps the golden campaign artifacts
// stable — and the worst-case footprint of a Sample is bounded by
// ExactCap floats plus the constant-size stream.
const ExactCap = 8192

// Sample accumulates float64 observations in bounded memory. Up to
// ExactCap observations are retained exactly (with the sorted order
// cached across quantile queries and invalidated by Add/Merge); past the
// cap the retained values are folded into a Stream and further
// observations go straight there.
//
// A Sample is single-owner like the packets it measures: after it is
// merged into another sample or copied, the source must not accumulate
// further.
type Sample struct {
	xs     []float64
	sorted bool
	str    *Stream // non-nil once spilled
	sorts  int     // sort invocations, for the cache regression test
}

// Spilled reports whether the sample has sealed into streaming mode.
func (s *Sample) Spilled() bool { return s.str != nil }

// spill folds the retained values into a fresh stream and drops them.
func (s *Sample) spill() {
	s.str = &Stream{}
	for _, x := range s.xs {
		s.str.Add(x)
	}
	s.xs = nil
	s.sorted = false
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	if s.str != nil {
		s.str.Add(x)
		return
	}
	if len(s.xs) >= ExactCap {
		s.spill()
		s.str.Add(x)
		return
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddTime appends a duration observation in milliseconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Millis()) }

// N reports the number of observations.
func (s *Sample) N() int {
	if s.str != nil {
		return int(s.str.N())
	}
	return len(s.xs)
}

// Values returns the raw observations (not a copy), or nil once the
// sample has spilled into streaming mode.
func (s *Sample) Values() []float64 { return s.xs }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
		s.sorts++
	}
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if s.str != nil {
		return s.str.Mean()
	}
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 {
	if s.str != nil {
		return s.str.Stddev()
	}
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Quantile returns the q-quantile (0 <= q <= 1): exact (linear
// interpolation over the sorted values) while the sample holds raw
// observations, a histogram estimate once spilled; 0 for an empty
// sample.
func (s *Sample) Quantile(q float64) float64 {
	if s.str != nil {
		return s.str.Quantile(q)
	}
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// CDF returns (value, cumulative probability) pairs at the given points.
func (s *Sample) CDF(points int) [][2]float64 {
	if s.N() == 0 || points < 2 {
		return nil
	}
	if s.str == nil {
		s.sort()
	}
	out := make([][2]float64, 0, points)
	for i := 0; i < points; i++ {
		p := float64(i) / float64(points-1)
		out = append(out, [2]float64{s.Quantile(p), p})
	}
	return out
}

// Merge folds all observations from other into s. The merge stays exact
// while the combined size fits the exact buffer; otherwise both sides
// seal into streams.
func (s *Sample) Merge(other *Sample) {
	if s.str == nil && other.str == nil && len(s.xs)+len(other.xs) <= ExactCap {
		s.xs = append(s.xs, other.xs...)
		s.sorted = false
		return
	}
	if s.str == nil {
		s.spill()
	}
	if other.str != nil {
		s.str.Merge(other.str)
		return
	}
	for _, x := range other.xs {
		s.str.Add(x)
	}
}

// Summary renders a one-line summary.
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d min=%.2f p25=%.2f med=%.2f p75=%.2f p95=%.2f p99=%.2f max=%.2f mean=%.2f",
		s.N(), s.Min(), s.Quantile(0.25), s.Median(), s.Quantile(0.75),
		s.Quantile(0.95), s.Quantile(0.99), s.Max(), s.Mean())
}

// MeanCI95 returns the mean of xs, the half-width of its 95% confidence
// interval under the normal approximation (1.96·s/√n), and the sample
// standard deviation s. Half-width and s are 0 for fewer than two
// observations.
func MeanCI95(xs []float64) (mean, half, sd float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd = math.Sqrt(ss / float64(n-1))
	return mean, 1.96 * sd / math.Sqrt(float64(n)), sd
}

// JainIndex computes Jain's fairness index over the shares:
// (Σx)² / (n·Σx²). It is 1 for perfect fairness and 1/n for a single
// winner. An empty or all-zero input yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Scale by the maximum so extreme magnitudes cannot overflow the
	// squared terms; the index is scale-invariant.
	var maxV float64
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
	}
	if maxV == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		v := x / maxV
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Shares normalises xs to fractions of their total (zero total -> zeros).
func Shares(xs []float64) []float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	out := make([]float64, len(xs))
	if sum == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / sum
	}
	return out
}

// Jitter is the RFC 3550 interarrival jitter estimator.
type Jitter struct {
	last    sim.Time // last transit time
	haveOne bool
	j       float64 // smoothed jitter, ns
}

// Observe records a packet with the given network transit time.
func (j *Jitter) Observe(transit sim.Time) {
	if !j.haveOne {
		j.last = transit
		j.haveOne = true
		return
	}
	d := float64(transit - j.last)
	if d < 0 {
		d = -d
	}
	j.last = transit
	j.j += (d - j.j) / 16
}

// Value returns the current jitter estimate.
func (j *Jitter) Value() sim.Time { return sim.Time(j.j) }

// Table is a minimal fixed-width text table renderer for experiment
// output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
