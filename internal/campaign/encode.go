package campaign

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Stable binary encoding for the Metrics of one repetition — the value
// type of the result cache. The encoding is exact (float64 bit
// patterns, insertion order preserved), so a decoded Metrics aggregates
// byte-identically to the in-memory original: cold, warm-cache and
// interrupted-then-rerun executions of the same cell produce the same
// artifact.

// metricsMagic tags (and versions) the Metrics blob layout.
var metricsMagic = []byte("HJM1")

// EncodeMetrics serializes one repetition's metrics. Equal metric sets
// produce equal bytes.
func EncodeMetrics(m *Metrics) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, metricsMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(m.scalars)))
	for _, s := range m.scalars {
		buf = binary.AppendUvarint(buf, uint64(len(s.name)))
		buf = append(buf, s.name...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.value))
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.samples)))
	for _, ns := range m.samples {
		blob, err := ns.sample.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("campaign: encoding sample %q: %w", ns.name, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(ns.name)))
		buf = append(buf, ns.name...)
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, nil
}

// DecodeMetrics parses an EncodeMetrics blob. It accepts only what
// EncodeMetrics writes — minimal varints, each scalar and each sample
// name once — so a decoded blob re-encodes to the same bytes. Anything
// else is an error, never a partial result: the cache treats a failed
// decode as a miss and recomputes.
func DecodeMetrics(blob []byte) (*Metrics, error) {
	if len(blob) < len(metricsMagic) || string(blob[:len(metricsMagic)]) != string(metricsMagic) {
		return nil, fmt.Errorf("campaign: metrics blob has no %s header", metricsMagic)
	}
	d := stats.NewDecoder(blob[len(metricsMagic):])
	m := NewMetrics()
	nScalars := d.Uvarint()
	for i := uint64(0); i < nScalars && d.Err() == nil; i++ {
		name := string(d.Bytes())
		if _, dup := m.scalarIndex[name]; dup {
			return nil, fmt.Errorf("campaign: metrics blob repeats scalar %q", name)
		}
		m.Add(name, d.Float64())
	}
	nSamples := d.Uvarint()
	for i := uint64(0); i < nSamples && d.Err() == nil; i++ {
		name := string(d.Bytes())
		sb := d.Bytes()
		if d.Err() != nil {
			break
		}
		if _, dup := m.sampleIndex[name]; dup {
			return nil, fmt.Errorf("campaign: metrics blob repeats sample %q", name)
		}
		var s stats.Sample
		if err := s.UnmarshalBinary(sb); err != nil {
			return nil, fmt.Errorf("campaign: metrics sample %q: %w", name, err)
		}
		m.AddSample(name, &s)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("campaign: decoding metrics: %w", err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("campaign: metrics blob has %d trailing bytes", d.Len())
	}
	return m, nil
}
