package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestProbeFactor checks a pass is scaled by the mean speed of the probe
// timings within probeMargin of it, and by the whole run's when none are.
func TestProbeFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	p := hostProbe{
		at: []time.Time{at(0), at(900), at(1100), at(1900), at(5000)},
		ms: []float64{1, 0.25, 1, 0.5, 0.5},
	}
	for _, tc := range []struct {
		name string
		w    window
		want float64
	}{
		// The timings at 900 and 1100 ms lie within 250 ms of the pass.
		{"short pass", window{at(1000), at(1010)}, (2 + 0.5) / 2},
		// 900, 1100 and 1900 ms: before, inside and after.
		{"long pass", window{at(1000), at(1800)}, (2 + 0.5 + 1) / 3},
		{"no timing near", window{at(3000), at(3010)}, (0.5 + 2 + 0.5 + 1 + 1) / 5},
	} {
		if got := p.factor(tc.w); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: factor %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestProbeConcurrentTicks ticks the probe from several goroutines at
// once, as campaign workers do between cells: one times the kernel, the
// others skip, and the timings stay probeEvery apart.
func TestProbeConcurrentTicks(t *testing.T) {
	p := hostProbe{k: newProbeKernel()}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < 4*probeEvery {
				p.tick()
			}
		}()
	}
	wg.Wait()
	if len(p.ms) < 2 || len(p.ms) != len(p.at) {
		t.Fatalf("%d timings at %d instants, want at least 2", len(p.ms), len(p.at))
	}
	for i := 1; i < len(p.at); i++ {
		if d := p.at[i].Sub(p.at[i-1]); d < probeEvery {
			t.Errorf("timings %d and %d are %v apart, want at least %v", i-1, i, d, probeEvery)
		}
	}
	for i, ms := range p.ms {
		if ms <= 0 {
			t.Errorf("timing %d = %g ms", i, ms)
		}
	}
}
