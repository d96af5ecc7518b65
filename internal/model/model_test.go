package model

import (
	"math"
	"testing"

	"repro/internal/phy"
)

// table1Baseline returns the measured aggregation levels the paper feeds the
// model for Table 1.
func table1Baseline() []StationParams {
	return []StationParams{
		{Name: "fast1", AggSize: 4.47, PktLen: 1500, Rate: phy.MCS(15, true)},
		{Name: "fast2", AggSize: 5.08, PktLen: 1500, Rate: phy.MCS(15, true)},
		{Name: "slow", AggSize: 1.89, PktLen: 1500, Rate: phy.MCS(0, true)},
	}
}

func table1Fair() []StationParams {
	return []StationParams{
		{Name: "fast1", AggSize: 18.44, PktLen: 1500, Rate: phy.MCS(15, true)},
		{Name: "fast2", AggSize: 18.52, PktLen: 1500, Rate: phy.MCS(15, true)},
		{Name: "slow", AggSize: 1.89, PktLen: 1500, Rate: phy.MCS(0, true)},
	}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.2f, want %.2f +- %.1f", name, got, want, tol)
	}
}

// TestTable1Baseline reproduces the calculated columns of Table 1's
// baseline block: airtime shares 10%/11%/79% and rates 9.7/11.4/5.1 Mbps
// (base rates 97.3/101.1/6.5).
func TestTable1Baseline(t *testing.T) {
	ps := Predict(table1Baseline(), false)
	within(t, "fast1 T(i)", ps[0].AirtimeShare*100, 10, 1)
	within(t, "fast2 T(i)", ps[1].AirtimeShare*100, 11, 1)
	within(t, "slow T(i)", ps[2].AirtimeShare*100, 79, 1)
	within(t, "fast1 base", ps[0].BaseRate/1e6, 97.3, 1.5)
	within(t, "fast2 base", ps[1].BaseRate/1e6, 101.1, 1.5)
	within(t, "slow base", ps[2].BaseRate/1e6, 6.5, 0.3)
	within(t, "fast1 R(i)", ps[0].Rate/1e6, 9.7, 1)
	within(t, "fast2 R(i)", ps[1].Rate/1e6, 11.4, 1)
	within(t, "slow R(i)", ps[2].Rate/1e6, 5.1, 0.5)
	within(t, "total", TotalRate(ps)/1e6, 26.4, 2)
}

// TestTable1Fair reproduces the airtime-fairness block: shares 1/3 each,
// base rates 126.7/126.8/6.5 and R(i) 42.2/42.3/2.2, total 86.8 Mbps.
func TestTable1Fair(t *testing.T) {
	ps := Predict(table1Fair(), true)
	for i := 0; i < 3; i++ {
		within(t, "T(i)", ps[i].AirtimeShare, 1.0/3, 1e-9)
	}
	within(t, "fast1 base", ps[0].BaseRate/1e6, 126.7, 1.5)
	within(t, "fast2 base", ps[1].BaseRate/1e6, 126.8, 1.5)
	within(t, "fast1 R(i)", ps[0].Rate/1e6, 42.2, 1)
	within(t, "fast2 R(i)", ps[1].Rate/1e6, 42.3, 1)
	within(t, "slow R(i)", ps[2].Rate/1e6, 2.2, 0.3)
	within(t, "total", TotalRate(ps)/1e6, 86.8, 3)
}

// TestFairnessGain: the model predicts the headline result — airtime
// fairness raises total throughput by a factor of ~3-5 in this setup.
func TestFairnessGain(t *testing.T) {
	base := TotalRate(Predict(table1Baseline(), false))
	fair := TotalRate(Predict(table1Fair(), true))
	gain := fair / base
	if gain < 2.5 || gain > 5.5 {
		t.Errorf("fairness gain = %.2fx, want ~3.3x", gain)
	}
}

func TestSharesSumToOne(t *testing.T) {
	for _, fair := range []bool{true, false} {
		ps := Predict(table1Baseline(), fair)
		sum := 0.0
		for _, p := range ps {
			sum += p.AirtimeShare
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("shares sum to %v (fair=%v)", sum, fair)
		}
	}
}

func TestLegacyStation(t *testing.T) {
	ps := Predict([]StationParams{
		{Name: "legacy", AggSize: 1, PktLen: 1500, Rate: phy.Legacy(1)},
		{Name: "fast", AggSize: 18, PktLen: 1500, Rate: phy.MCS(15, true)},
	}, false)
	// A 1 Mbps legacy station's single transmission takes ~12.5 ms versus
	// ~1.6 ms: it must eat the vast majority of airtime.
	if ps[0].AirtimeShare < 0.85 {
		t.Errorf("legacy airtime share = %.2f, want > 0.85", ps[0].AirtimeShare)
	}
}

func TestEmptyPrediction(t *testing.T) {
	if got := Predict(nil, false); len(got) != 0 {
		t.Fatal("non-empty prediction for no stations")
	}
}
