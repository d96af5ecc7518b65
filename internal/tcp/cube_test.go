package tcp

import (
	"math"
	"testing"
)

// TestCubeMatchesPow: cubicUpdate takes the cube of t-K as d*d*d, which
// must equal math.Pow(d, 3) bit for bit so the switch changes no cwnd
// trajectory. Pow scales the mantissa product back with one final
// rounding, so the two differ only when the cube is subnormal
// (|d| below about 2.8e-103), far below any t-K in seconds; the sweep
// covers negatives, ±0 and 1e-9 to 1e3.
func TestCubeMatchesPow(t *testing.T) {
	check := func(d float64) {
		t.Helper()
		if got, want := d*d*d, math.Pow(d, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%v (%#x): d*d*d=%v (%#x), math.Pow(d, 3)=%v (%#x)",
				d, math.Float64bits(d), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check(0)
	check(math.Copysign(0, -1))
	for _, step := range []float64{1 + 1e-3, 1 + 1.0/3, math.Pi} {
		for m := 1e-9; m <= 1e3; m *= step {
			for _, d := range []float64{m, -m, math.Nextafter(m, 0), math.Nextafter(m, 2e3)} {
				check(d)
				check(-d)
			}
		}
	}
}
