package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Stable serialization for Sample and its streaming layer. The encoding
// is exact — float64s travel as their IEEE-754 bit patterns — so a
// decoded sample folds into downstream aggregation byte-identically to
// the original. The campaign result cache depends on this exactness: a
// cell replayed from the cache must produce the same artifact bytes as
// the run that populated it.
//
// What round-trips: the retained observations (in insertion order) and
// the full streaming state (Welford accumulator, exact min/max,
// histogram buckets) once spilled. What intentionally does not: the
// sorted-order cache and its instrumentation counter — both are lazily
// rebuilt and observationally irrelevant.

// sampleCodecVersion tags the binary encoding; bump on layout change.
const sampleCodecVersion = 1

// sampleFlagSpilled is the only flag bit of the encoding. Bit 0 once
// marked an unbounded sample; nothing writes it, and decoding rejects it
// like any other unknown bit.
const sampleFlagSpilled = 1 << 1

// MarshalBinary encodes the sample. The encoding is deterministic: equal
// samples produce equal bytes.
func (s *Sample) MarshalBinary() ([]byte, error) {
	var flags byte
	if s.str != nil {
		flags |= sampleFlagSpilled
	}
	buf := make([]byte, 0, 2+8*len(s.xs)+16)
	buf = append(buf, sampleCodecVersion, flags)
	if s.str == nil {
		buf = binary.AppendUvarint(buf, uint64(len(s.xs)))
		for _, x := range s.xs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		return buf, nil
	}
	return s.str.appendBinary(buf), nil
}

// UnmarshalBinary decodes an encoding produced by MarshalBinary,
// replacing the sample's state. It accepts only what MarshalBinary can
// write: minimal varints, at most ExactCap retained values, and a
// stream whose counts agree, whose buckets are listed once each in
// increasing order, and whose m2 and min/max are ordered. So a decoded
// blob re-encodes to the same bytes. A NaN the encoder can write still
// decodes: each check is written as a rejection NaN does not trigger.
func (s *Sample) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("stats: sample blob too short (%d bytes)", len(data))
	}
	if data[0] != sampleCodecVersion {
		return fmt.Errorf("stats: unknown sample codec version %d", data[0])
	}
	flags := data[1]
	if flags&^sampleFlagSpilled != 0 {
		return fmt.Errorf("stats: unknown sample flags %#x", flags)
	}
	d := NewDecoder(data[2:])
	*s = Sample{}
	if flags&sampleFlagSpilled == 0 {
		n := d.Uvarint()
		if n > ExactCap {
			return fmt.Errorf("stats: unspilled sample claims %d values, above ExactCap %d", n, ExactCap)
		}
		if n > uint64(d.Len()/8) {
			return fmt.Errorf("stats: sample claims %d values in %d bytes", n, d.Len())
		}
		if n > 0 {
			s.xs = make([]float64, n)
			for i := range s.xs {
				s.xs[i] = d.Float64()
			}
		}
		return d.finish("sample")
	}
	s.str = &Stream{}
	s.str.readBinary(d)
	return d.finish("sample")
}

// appendBinary encodes the stream's exact state: Welford accumulator,
// min/max, and the non-zero histogram buckets as (index, count) pairs.
func (s *Stream) appendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.w.n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.w.mean))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.w.m2))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	buf = binary.AppendUvarint(buf, uint64(s.h.n))
	var nz uint64
	for _, c := range s.h.counts {
		if c != 0 {
			nz++
		}
	}
	buf = binary.AppendUvarint(buf, nz)
	for i, c := range s.h.counts {
		if c != 0 {
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	}
	return buf
}

func (s *Stream) readBinary(d *Decoder) {
	s.w.n = d.count()
	s.w.mean = d.Float64()
	s.w.m2 = d.Float64()
	s.min = d.Float64()
	s.max = d.Float64()
	s.h.n = d.count()
	nz := d.Uvarint()
	if d.err != nil {
		return
	}
	switch {
	case s.w.n != s.h.n:
		d.fail(fmt.Errorf("welford count %d != histogram count %d", s.w.n, s.h.n))
		return
	case s.w.m2 < 0:
		d.fail(fmt.Errorf("negative m2 %v", s.w.m2))
		return
	case s.min > s.max:
		d.fail(fmt.Errorf("min %v above max %v", s.min, s.max))
		return
	}
	// Buckets: strictly increasing indexes, nonzero counts summing to n.
	// Each count is at most n - sum, so the sum never overflows.
	var sum int64
	for i, prev := uint64(0), int64(-1); i < nz; i++ {
		idx := d.Uvarint()
		cnt := d.count()
		switch {
		case d.err != nil:
			return
		case idx >= histBkts:
			d.fail(fmt.Errorf("histogram bucket %d out of range", idx))
			return
		case int64(idx) <= prev:
			d.fail(fmt.Errorf("histogram bucket %d listed after bucket %d", idx, prev))
			return
		case cnt == 0:
			d.fail(fmt.Errorf("histogram bucket %d listed with count 0", idx))
			return
		case cnt > s.h.n-sum:
			d.fail(fmt.Errorf("histogram buckets hold more than its count %d", s.h.n))
			return
		}
		s.h.counts[idx] = cnt
		sum += cnt
		prev = int64(idx)
	}
	if sum != s.h.n {
		d.fail(fmt.Errorf("histogram buckets hold %d of its count %d", sum, s.h.n))
	}
}

// Decoder is a cursor over a binary blob that latches the first error.
// It accepts only minimal varints: binary.AppendUvarint never ends a
// multi-byte encoding in a zero byte. The Sample codec and the campaign
// result codec both read through it.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error met, or nil.
func (d *Decoder) Err() error { return d.err }

// Len reports the bytes not read yet.
func (d *Decoder) Len() int { return len(d.buf) }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads a minimal unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint"))
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		d.fail(fmt.Errorf("non-minimal varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a uvarint that must fit an int64 count.
func (d *Decoder) count() int64 {
	v := d.Uvarint()
	if v > math.MaxInt64 {
		d.fail(fmt.Errorf("count %d overflows int64", v))
		return 0
	}
	return int64(v)
}

// Float64 reads a little-endian IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail(fmt.Errorf("truncated float64"))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Bytes reads a uvarint length and that many bytes, which alias the
// blob.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail(fmt.Errorf("field of %d bytes in %d remaining", n, len(d.buf)))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *Decoder) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("stats: decoding %s: %w", what, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("stats: decoding %s: %d trailing bytes", what, len(d.buf))
	}
	return nil
}

// Equal reports whether two samples hold identical state: the same
// retained observations in the same order, or the same spilled stream.
// It is the oracle the round-trip tests use.
func (s *Sample) Equal(o *Sample) bool {
	if (s.str == nil) != (o.str == nil) {
		return false
	}
	if s.str != nil {
		return *s.str == *o.str
	}
	if len(s.xs) != len(o.xs) {
		return false
	}
	for i, x := range s.xs {
		if math.Float64bits(x) != math.Float64bits(o.xs[i]) {
			return false
		}
	}
	return true
}
