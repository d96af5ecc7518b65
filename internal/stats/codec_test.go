package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randomSample builds a sample with n observations drawn from a mix of
// magnitudes (sub-normal-ish tiny, ordinary, huge) so every histogram
// region and float shape is exercised.
func randomSample(rng *rand.Rand, n int) *Sample {
	var s Sample
	for i := 0; i < n; i++ {
		var x float64
		switch rng.Intn(5) {
		case 0:
			x = rng.Float64() * 1e-9
		case 1:
			x = rng.Float64() * 1e12
		case 2:
			x = 0
		case 3:
			x = -rng.Float64() * 100 // negative: underflow bucket once spilled
		default:
			x = rng.NormFloat64() * 50
		}
		s.Add(x)
	}
	return &s
}

// TestSampleBinaryRoundTrip is the round-trip property test: across
// sizes spanning empty, exact, and spilled samples, decode(encode(s))
// reproduces the state exactly and behaves identically under further
// accumulation and aggregation.
func TestSampleBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 17, 1000, ExactCap, ExactCap + 1, ExactCap + 913}
	for _, n := range sizes {
		s := randomSample(rng, n)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		var d Sample
		if err := d.UnmarshalBinary(blob); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if !d.Equal(s) {
			t.Fatalf("n=%d: state differs after round trip", n)
		}
		// Determinism: re-encoding yields the same bytes.
		blob2, _ := d.MarshalBinary()
		if string(blob) != string(blob2) {
			t.Fatalf("n=%d: encoding not deterministic", n)
		}
		// Behavioral identity: statistics agree bit-for-bit, and the
		// decoded sample keeps accumulating like the original.
		checkSameStats(t, s, &d)
		extra := rng.NormFloat64() * 10
		s.Add(extra)
		d.Add(extra)
		checkSameStats(t, s, &d)
		// Aggregation identity: merging the decoded copy into a fresh
		// sample matches merging the original.
		var m1, m2 Sample
		m1.Merge(s)
		m2.Merge(&d)
		checkSameStats(t, &m1, &m2)
	}
}

func checkSameStats(t *testing.T, a, b *Sample) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("N: %d != %d", a.N(), b.N())
	}
	pairs := [][2]float64{
		{a.Mean(), b.Mean()}, {a.Stddev(), b.Stddev()},
		{a.Min(), b.Min()}, {a.Max(), b.Max()},
		{a.Median(), b.Median()}, {a.Quantile(0.95), b.Quantile(0.95)},
		{a.Quantile(0.99), b.Quantile(0.99)},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("stat %d: %v != %v", i, p[0], p[1])
		}
	}
}

// TestSampleDecodeRejectsGarbage: corrupted blobs error out instead of
// panicking or silently truncating — the cache layer depends on decode
// failures being clean misses.
func TestSampleDecodeRejectsGarbage(t *testing.T) {
	s := randomSample(rand.New(rand.NewSource(3)), 64)
	good, _ := s.MarshalBinary()
	cases := [][]byte{
		nil,
		{},
		{99, 0},            // bad version
		{1, 1, 0},          // retired unbounded flag
		{1, 4, 0},          // unknown flag
		{1, 0x80, 0},       // unknown flag
		good[:1],           // truncated header
		good[:len(good)-3], // truncated payload
		append(good, 1, 2, 3) /* trailing garbage */}
	for i, blob := range cases {
		var d Sample
		if err := d.UnmarshalBinary(blob); err == nil {
			t.Errorf("case %d: corrupted blob decoded without error", i)
		}
	}
	// A spilled sample with an out-of-range bucket index is rejected too;
	// the same blob with the last valid index decodes.
	spilled := func(bucket uint64) []byte {
		b := []byte{sampleCodecVersion, sampleFlagSpilled, 1} // one observation
		// mean, m2, min, max
		for i := 0; i < 4; i++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		}
		b = binary.AppendUvarint(b, 1) // histogram count
		b = binary.AppendUvarint(b, 1) // non-zero buckets
		b = binary.AppendUvarint(b, bucket)
		return binary.AppendUvarint(b, 1)
	}
	var d Sample
	if err := d.UnmarshalBinary(spilled(histBkts - 1)); err != nil {
		t.Fatalf("spilled blob: %v", err)
	}
	if !d.Spilled() {
		t.Fatal("decoded sample lost spilled state")
	}
	if err := d.UnmarshalBinary(spilled(histBkts)); err == nil {
		t.Fatal("bucket index histBkts decoded without error")
	}
}
