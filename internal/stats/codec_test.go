package stats

import (
	"bytes"
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

// spilledBlob hand-builds a spilled sample encoding: the Welford count,
// mean, m2, min and max, the histogram count, then (index, count)
// bucket pairs in the order given.
func spilledBlob(wn uint64, m2, min, max float64, hn uint64, buckets ...[2]uint64) []byte {
	b := []byte{sampleCodecVersion, sampleFlagSpilled}
	b = binary.AppendUvarint(b, wn)
	for _, x := range []float64{1, m2, min, max} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	b = binary.AppendUvarint(b, hn)
	b = binary.AppendUvarint(b, uint64(len(buckets)))
	for _, bk := range buckets {
		b = binary.AppendUvarint(b, bk[0])
		b = binary.AppendUvarint(b, bk[1])
	}
	return b
}

// TestSampleDecodeRejectsGarbage: corrupted blobs, and blobs no encoder
// writes, error out instead of panicking or silently decoding into a
// sample the artifact would then fold in — the cache layer depends on
// decode failures being clean misses.
func TestSampleDecodeRejectsGarbage(t *testing.T) {
	s := randomSample(rand.New(rand.NewSource(3)), 64)
	good, _ := s.MarshalBinary()
	overCap := binary.AppendUvarint([]byte{sampleCodecVersion, 0}, ExactCap+1)
	overCap = append(overCap, make([]byte, 8*(ExactCap+1))...)
	const big = 1<<63 + 5 // reads as -9.2e18 through an int64
	cases := []struct {
		name string
		blob []byte
	}{
		{"nil", nil},
		{"empty", []byte{}},
		{"bad version", []byte{99, 0}},
		{"retired unbounded flag", []byte{1, 1, 0}},
		{"unknown flag 4", []byte{1, 4, 0}},
		{"unknown flag 0x80", []byte{1, 0x80, 0}},
		{"truncated header", good[:1]},
		{"truncated payload", good[:len(good)-3]},
		{"trailing garbage", append(good, 1, 2, 3)},
		{"non-minimal varint", []byte{sampleCodecVersion, 0, 0x80, 0x00}},
		{"unspilled above ExactCap", overCap},
		{"count above MaxInt64", spilledBlob(big, 0, 1, 1, big, [2]uint64{7, big})},
		{"histogram n 5, buckets 10000", spilledBlob(5, 0, 1, 1, 5, [2]uint64{7, 10000})},
		{"n 10000, empty histogram", spilledBlob(10000, 0, 1, 1, 10000)},
		{"welford n != histogram n", spilledBlob(2, 0, 1, 1, 1, [2]uint64{7, 1})},
		{"bucket listed twice", spilledBlob(2, 0, 1, 1, 2, [2]uint64{7, 1}, [2]uint64{7, 1})},
		{"buckets decreasing", spilledBlob(2, 0, 1, 1, 2, [2]uint64{8, 1}, [2]uint64{7, 1})},
		{"zero-count bucket", spilledBlob(1, 0, 1, 1, 1, [2]uint64{7, 0}, [2]uint64{8, 1})},
		{"min above max", spilledBlob(1, 0, 2, 1, 1, [2]uint64{7, 1})},
		{"negative m2", spilledBlob(1, -1, 1, 1, 1, [2]uint64{7, 1})},
		{"bucket index histBkts", spilledBlob(1, 0, 1, 1, 1, [2]uint64{histBkts, 1})},
	}
	for _, c := range cases {
		var d Sample
		if err := d.UnmarshalBinary(c.blob); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	// The same shapes the encoder can write decode: the last valid
	// bucket index, and a stream whose m2, min and max are NaN.
	var d Sample
	if err := d.UnmarshalBinary(spilledBlob(1, 0, 1, 1, 1, [2]uint64{histBkts - 1, 1})); err != nil {
		t.Fatalf("spilled blob: %v", err)
	}
	if !d.Spilled() {
		t.Fatal("decoded sample lost spilled state")
	}
	var nan Sample
	for i := 0; i <= ExactCap; i++ {
		nan.Add(math.NaN())
	}
	blob, _ := nan.MarshalBinary()
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatalf("NaN stream: %v", err)
	}
}

// FuzzSampleUnmarshal: whatever UnmarshalBinary accepts re-encodes to
// the same bytes, and the decoded sample answers queries and merges
// without panicking. The seeds are the round-trip and garbage shapes
// above.
func FuzzSampleUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 17, ExactCap + 1} {
		blob, _ := randomSample(rng, n).MarshalBinary()
		f.Add(blob)
	}
	f.Add([]byte{sampleCodecVersion, 0, 0x80, 0x00})
	f.Add(spilledBlob(2, 0, 1, 1, 2, [2]uint64{7, 1}, [2]uint64{7, 1}))
	f.Add(spilledBlob(10000, 0, 1, 1, 10000))
	f.Add(spilledBlob(1, 0, 1, 1, 1, [2]uint64{histBkts - 1, 1}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var s Sample
		if s.UnmarshalBinary(blob) != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("decoded blob re-encodes differently:\n in  %x\n out %x", blob, again)
		}
		s.Median()
		s.Quantile(0.95)
		s.Mean()
		var m Sample
		m.Add(1)
		m.Merge(&s)
		m.Median()
	})
}
