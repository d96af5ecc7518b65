package phy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestMCSRates(t *testing.T) {
	cases := []struct {
		idx  int
		sgi  bool
		mbps float64
	}{
		{0, false, 6.5},
		{0, true, 7.2222},
		{7, false, 65},
		{7, true, 72.2222},
		{15, false, 130},
		{15, true, 144.4444},
		{8, false, 13},
	}
	for _, c := range cases {
		r := MCS(c.idx, c.sgi)
		if math.Abs(r.Mbps()-c.mbps) > 0.05 {
			t.Errorf("MCS%d sgi=%v = %.2f Mbps, want %.2f", c.idx, c.sgi, r.Mbps(), c.mbps)
		}
		if r.Legacy {
			t.Errorf("MCS%d marked legacy", c.idx)
		}
	}
}

func TestMCSOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MCS(16, false)
}

func TestLegacy(t *testing.T) {
	r := Legacy(1)
	if !r.Legacy || r.Mbps() != 1 {
		t.Fatalf("legacy rate wrong: %+v", r)
	}
}

// TestMPDULen checks eq. 1's per-packet term: payload + delimiter (4) +
// MAC header (34) + FCS (4), padded to 4 bytes.
func TestMPDULen(t *testing.T) {
	// 1500 + 42 = 1542 -> padded to 1544.
	if got := MPDULen(1500); got != 1544 {
		t.Fatalf("MPDULen(1500) = %d, want 1544", got)
	}
	// Already a multiple of four: 1498+42 = 1540.
	if got := MPDULen(1498); got != 1540 {
		t.Fatalf("MPDULen(1498) = %d, want 1540", got)
	}
	if got := AMPDULen(10, 1500); got != 15440 {
		t.Fatalf("AMPDULen(10,1500) = %d, want 15440", got)
	}
}

// TestTable1BaseRates verifies the model constants against the paper's
// Table 1 "Base" column: 18.44-packet aggregates at MCS15 SGI yield
// 126.7 Mbps; single-station MCS0 at 1.89 packets yields ~6.5 Mbps.
func TestTable1BaseRates(t *testing.T) {
	fast := MCS(15, true)
	// n must be integral here; check n=18 and n=19 bracket the paper's
	// fractional 18.44 figure.
	r18 := EffectiveRate(18, 1500, fast) / 1e6
	r19 := EffectiveRate(19, 1500, fast) / 1e6
	if !(r18 < 126.7 && 126.7 < r19) {
		t.Errorf("Base rate bracket [%0.1f, %0.1f] does not contain 126.7", r18, r19)
	}
	slow := MCS(0, true)
	r2 := EffectiveRate(2, 1500, slow) / 1e6
	if math.Abs(r2-6.6) > 0.3 {
		t.Errorf("slow base rate = %.2f Mbps, want ~6.5", r2)
	}
}

func TestDataDurMonotone(t *testing.T) {
	r := MCS(7, true)
	prev := sim.Time(0)
	for n := 1; n <= 64; n++ {
		d := DataDur(n, 1500, r)
		if d <= prev {
			t.Fatalf("DataDur not monotone at n=%d", n)
		}
		prev = d
	}
}

func TestDataDurLegacy(t *testing.T) {
	r := Legacy(1)
	d := DataDur(1, 1500, r)
	// 192 us preamble + (1500+38)*8 bits at 1 Mbps = 192 + 12304 us.
	want := TPhyLegacy + sim.Time(12304)*sim.Microsecond
	if d != want {
		t.Fatalf("legacy DataDur = %v, want %v", d, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("legacy aggregation should panic")
		}
	}()
	DataDur(2, 1500, r)
}

func TestOverheadComponents(t *testing.T) {
	r := MCS(15, true)
	// Tack = SIFS + 8*58/144.44 us ~= 16 + 3.2 us.
	ack := AckDur(r)
	if ack < 19*sim.Microsecond || ack > 20*sim.Microsecond {
		t.Fatalf("AckDur = %v, want ~19.2us", ack)
	}
	// TBO = 9 * 15/2 = 67.5 us.
	if MeanBackoff(CWMin) != sim.Time(67500) {
		t.Fatalf("MeanBackoff = %v, want 67.5us", MeanBackoff(CWMin))
	}
	oh := Overhead(r, CWMin)
	want := TDIFS + TSIFS + ack + MeanBackoff(CWMin)
	if oh != want {
		t.Fatalf("Overhead = %v, want %v", oh, want)
	}
}

// TestAggregationGainShape: effective rate must rise steeply with
// aggregation at high PHY rates — the mechanism behind the FQ-MAC
// throughput gains in §4.1.3.
func TestAggregationGainShape(t *testing.T) {
	fast := MCS(15, true)
	r1 := EffectiveRate(1, 1500, fast)
	r32 := EffectiveRate(32, 1500, fast)
	if r32 < 2.5*r1 {
		t.Errorf("aggregation gain only %.1fx at MCS15, want > 2.5x", r32/r1)
	}
	slow := MCS(0, true)
	s1 := EffectiveRate(1, 1500, slow)
	s2 := EffectiveRate(2, 1500, slow)
	if s2 < s1 || s2 > 1.2*s1 {
		t.Errorf("slow-station aggregation gain implausible: %.2f -> %.2f", s1, s2)
	}
}

func TestTxTime(t *testing.T) {
	r := MCS(15, true)
	if TxTime(4, 1500, r) != DataDur(4, 1500, r)+AckDur(r) {
		t.Fatal("TxTime != DataDur + AckDur")
	}
}

func TestDataDurBytesMatchesDataDur(t *testing.T) {
	r := MCS(9, false)
	if DataDurBytes(AMPDULen(5, 1500), r) != DataDur(5, 1500, r) {
		t.Fatal("DataDurBytes inconsistent with DataDur")
	}
}

// TestFitBytes: the byte threshold makes exactly the same fit/no-fit
// decisions as comparing DataDurBytes against the cap.
func TestFitBytes(t *testing.T) {
	var rates []Rate
	for i := 0; i < 16; i++ {
		rates = append(rates, MCS(i, true), MCS(i, false))
	}
	rates = append(rates, Legacy(1), Legacy(11), Legacy(54))
	caps := []sim.Time{4 * sim.Millisecond, 1 * sim.Millisecond, 100 * sim.Microsecond, TPhy, 0}
	for _, r := range rates {
		for _, cap := range caps {
			fit := FitBytes(r, cap)
			if fit >= 0 && DataDurBytes(fit, r) > cap {
				t.Errorf("%v cap %v: FitBytes %d exceeds the cap", r, cap, fit)
			}
			if DataDurBytes(fit+1, r) <= cap {
				t.Errorf("%v cap %v: FitBytes %d is not maximal", r, cap, fit)
			}
			// Spot-check decision identity across the boundary.
			for b := fit - 2; b <= fit+2; b++ {
				if b < 0 {
					continue
				}
				if (b > fit) != (DataDurBytes(b, r) > cap) {
					t.Errorf("%v cap %v: decision differs at %d bytes", r, cap, b)
				}
			}
		}
	}
}

// BenchmarkDataDur: the per-probe duration formula (float division).
func BenchmarkDataDur(b *testing.B) {
	r := MCS(15, true)
	var acc sim.Time
	for i := 0; i < b.N; i++ {
		acc += DataDur(1+i%32, 1500, r)
	}
	benchSink = acc
}

var benchSink sim.Time
