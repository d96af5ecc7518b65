package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// synthetic builds a registry with two deterministic scenarios whose
// metrics depend only on the derived seed and parameters.
func synthetic() *Registry {
	r := NewRegistry()
	r.Register(&Scenario{
		Name: "alpha",
		Desc: "seed-dependent scalar and distribution",
		Axes: []Axis{
			{Name: "scheme", Values: []string{"a", "b", "c"}},
			{Name: "rate", Values: []string{"10", "50"}},
		},
		Run: func(ctx Ctx) (*Metrics, error) {
			rate, err := strconv.Atoi(ctx.Param("rate"))
			if err != nil {
				return nil, err
			}
			m := NewMetrics()
			m.Add("seed-lo", float64(ctx.Seed%1000))
			m.Add("rate-x2", float64(2*rate))
			var s stats.Sample
			x := ctx.Seed
			for i := 0; i < 16; i++ {
				x = splitmix64(x)
				s.Add(float64(x % 997))
			}
			m.AddSample("dist", &s)
			return m, nil
		},
	})
	r.Register(&Scenario{
		Name: "beta",
		Desc: "axis-free scenario",
		Run: func(ctx Ctx) (*Metrics, error) {
			m := NewMetrics()
			m.Add("dur-sec", ctx.Duration.Seconds())
			m.Add("rep", float64(ctx.Rep))
			return m, nil
		},
	})
	return r
}

// TestDeterministicAcrossWorkers is the core engine guarantee: the JSON
// artifact is byte-identical for 1, 4 and 8 workers.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := synthetic().Execute(Plan{
			Reps: 5, Duration: 3 * sim.Second, Warmup: sim.Second,
			BaseSeed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d artifact differs from workers=1", workers)
		}
	}
}

func TestMatrixExpansion(t *testing.T) {
	res, err := synthetic().Execute(Plan{Reps: 2, Workers: 2, Duration: sim.Second, Warmup: sim.Second, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// alpha: 3 schemes × 2 rates = 6 cells; beta: 1 cell.
	if len(res.Cells) != 7 {
		t.Fatalf("cells = %d, want 7", len(res.Cells))
	}
	if res.Runs != 14 {
		t.Fatalf("runs = %d, want 14", res.Runs)
	}
	// Cell order is scenario registration order × axis expansion order.
	if got := res.Cells[0].Label(); got != "alpha scheme=a rate=10" {
		t.Fatalf("cell 0 label = %q", got)
	}
	if got := res.Cells[1].Label(); got != "alpha scheme=a rate=50" {
		t.Fatalf("cell 1 label = %q", got)
	}
	if got := res.Cells[6].Label(); got != "beta" {
		t.Fatalf("cell 6 label = %q", got)
	}
	// Seeds are distinct across every (cell, rep) of a scenario.
	seen := make(map[uint64]bool)
	for _, c := range res.Cells[:6] {
		if len(c.Seeds) != 2 {
			t.Fatalf("cell %s has %d seeds", c.Label(), len(c.Seeds))
		}
		for _, s := range c.Seeds {
			if seen[s] {
				t.Fatalf("seed %d reused", s)
			}
			seen[s] = true
		}
	}
}

func TestSweepOverrides(t *testing.T) {
	res, err := synthetic().Execute(Plan{
		Scenarios: []string{"alpha"},
		Overrides: map[string][]string{"rate": {"100"}, "scheme": {"b"}},
		Reps:      1, Workers: 1, Duration: sim.Second, Warmup: sim.Second, BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Label() != "alpha scheme=b rate=100" {
		t.Fatalf("label = %q", c.Label())
	}
	for _, m := range c.Metrics {
		if m.Name == "rate-x2" && m.Mean != 200 {
			t.Fatalf("rate-x2 = %v, want 200", m.Mean)
		}
	}
	// Unknown axis and unknown scenario are errors.
	if _, err := synthetic().Execute(Plan{Overrides: map[string][]string{"nope": {"1"}}}); err == nil {
		t.Fatal("unknown axis accepted")
	}
	if _, err := synthetic().Execute(Plan{Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// A repeated scenario would run its cells twice under the same seeds.
	_, err = synthetic().Execute(Plan{Scenarios: []string{"alpha", "beta", "alpha"}})
	if err == nil || !strings.Contains(err.Error(), `"alpha"`) {
		t.Fatalf("repeated scenario: err = %v, want it named", err)
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, name := range []string{"alpha", "beta"} {
		for point := 0; point < 8; point++ {
			for rep := 0; rep < 8; rep++ {
				s := DeriveSeed(42, name, point, rep)
				if s == 0 {
					t.Fatal("zero seed derived")
				}
				if seen[s] {
					t.Fatalf("seed collision at %s/%d/%d", name, point, rep)
				}
				seen[s] = true
				if s != DeriveSeed(42, name, point, rep) {
					t.Fatal("derivation not reproducible")
				}
			}
		}
	}
	if DeriveSeed(1, "alpha", 0, 0) == DeriveSeed(2, "alpha", 0, 0) {
		t.Fatal("base seed ignored")
	}
}

func TestRunErrorPropagates(t *testing.T) {
	r := NewRegistry()
	r.Register(&Scenario{
		Name: "boom",
		Run: func(ctx Ctx) (*Metrics, error) {
			if ctx.Rep == 2 {
				return nil, fmt.Errorf("rep 2 exploded")
			}
			m := NewMetrics()
			m.Add("ok", 1)
			return m, nil
		},
	})
	if _, err := r.Execute(Plan{Reps: 4, Workers: 4}); err == nil {
		t.Fatal("error swallowed")
	}
	// Panics are converted, not fatal.
	r2 := NewRegistry()
	r2.Register(&Scenario{
		Name: "panic",
		Run:  func(ctx Ctx) (*Metrics, error) { panic("kaboom") },
	})
	if _, err := r2.Execute(Plan{Reps: 1, Workers: 1}); err == nil {
		t.Fatal("panic swallowed")
	}
}

func TestArtifactFormats(t *testing.T) {
	res, err := synthetic().Execute(Plan{Reps: 2, Workers: 2, BaseSeed: 3, Duration: sim.Second, Warmup: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, csvBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scenario": "alpha"`, `"base_seed": 3`, `"name": "seed-lo"`} {
		if !bytes.Contains(jsonBuf.Bytes(), []byte(want)) {
			t.Errorf("JSON artifact missing %q", want)
		}
	}
	for _, want := range []string{"scenario,params,kind", "alpha,scheme=a rate=10,scalar,seed-lo", "dist"} {
		if !bytes.Contains(csvBuf.Bytes(), []byte(want)) {
			t.Errorf("CSV artifact missing %q", want)
		}
	}
	if r := res.Render(); !bytes.Contains([]byte(r), []byte("mean±ci95")) {
		t.Error("text render missing header")
	}
}

// TestMetricsNames: Names lists scalars, then distributions, each in
// insertion order, and a re-added name keeps its first place.
func TestMetricsNames(t *testing.T) {
	m := NewMetrics()
	m.AddSample("rtt", new(stats.Sample))
	m.Add("share", 0.5)
	m.Add("jain", 1)
	m.AddSample("plt", new(stats.Sample))
	m.Add("share", 0.25)
	if got := fmt.Sprint(m.Names()); got != "[share jain rtt plt]" {
		t.Errorf("Names() = %s, want [share jain rtt plt]", got)
	}
}

// TestMetricsCodecRoundTrip: the cache's blob encoding reproduces a
// Metrics exactly — names, insertion order, float bits, samples — and
// the decoder rejects damaged blobs and blobs the encoder never writes.
func TestMetricsCodecRoundTrip(t *testing.T) {
	m := codecMetrics()
	blob, err := EncodeMetrics(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMetrics(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.scalars) != len(m.scalars) || len(got.samples) != len(m.samples) {
		t.Fatalf("shape: %d/%d scalars, %d/%d samples",
			len(got.scalars), len(m.scalars), len(got.samples), len(m.samples))
	}
	for i, s := range m.scalars {
		g := got.scalars[i]
		if g.name != s.name || math.Float64bits(g.value) != math.Float64bits(s.value) {
			t.Fatalf("scalar %d: %q=%v vs %q=%v", i, g.name, g.value, s.name, s.value)
		}
	}
	for i, ns := range m.samples {
		g := got.samples[i]
		if g.name != ns.name || !g.sample.Equal(ns.sample) {
			t.Fatalf("sample %d (%q) differs", i, ns.name)
		}
	}
	// Determinism and corruption rejection.
	blob2, _ := EncodeMetrics(got)
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding differs")
	}
	for _, bad := range badMetricsBlobs(blob) {
		if _, err := DecodeMetrics(bad); err == nil {
			t.Errorf("bad blob %x decoded", bad)
		}
	}
}

// codecMetrics is the metric set the codec tests round-trip.
func codecMetrics() *Metrics {
	m := NewMetrics()
	m.Add("zeta", 1.5)
	m.Add("alpha", -0.0)  // negative zero must survive
	m.Add("tiny", 5e-324) // smallest denormal
	m.Add("odd", 0.1+0.2) // non-representable decimal
	var s1, s2 stats.Sample
	for i := 0; i < 100; i++ {
		s1.Add(float64(i) * 0.31)
	}
	m.AddSample("dist-b", &s1)
	m.AddSample("dist-a", &s2) // empty sample round-trips too
	return m
}

// badMetricsBlobs lists blobs DecodeMetrics must reject: damaged copies
// of a good blob, a non-minimal varint, and repeated names.
func badMetricsBlobs(good []byte) [][]byte {
	one := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))
	empty, _ := new(stats.Sample).MarshalBinary()
	scalarA := append([]byte{1, 'a'}, one...)
	sampleX := append([]byte{1, 'x', byte(len(empty))}, empty...)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		nil,
		good[:3],
		good[:len(good)-2],
		cat(good, []byte{9}),
		cat(metricsMagic, []byte{0x80, 0x00, 0x00}),               // zero scalars, spelled in two bytes
		cat(metricsMagic, []byte{2}, scalarA, scalarA, []byte{0}), // scalar a twice
		cat(metricsMagic, []byte{0, 2}, sampleX, sampleX),         // sample x twice
	}
}

// FuzzDecodeMetrics: whatever DecodeMetrics accepts re-encodes to the
// same bytes, and its samples answer queries, merge and aggregate
// without panicking. The seeds are the round-trip and rejection blobs
// above.
func FuzzDecodeMetrics(f *testing.F) {
	good, err := EncodeMetrics(codecMetrics())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, bad := range badMetricsBlobs(good) {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := DecodeMetrics(blob)
		if err != nil {
			return
		}
		again, err := EncodeMetrics(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("decoded blob re-encodes differently:\n in  %x\n out %x", blob, again)
		}
		for _, ns := range m.samples {
			ns.sample.Median()
			ns.sample.Quantile(0.95)
			ns.sample.Mean()
			var into stats.Sample
			into.Add(1)
			into.Merge(ns.sample)
		}
		aggregateCell(&Scenario{Name: "fuzz"}, nil, []uint64{1}, []*Metrics{m})
	})
}

// TestCacheKeyProperties: canonicalization and sensitivity of the
// content address.
func TestCacheKeyProperties(t *testing.T) {
	base := JobSpec{
		Scenario: "udp",
		Params:   []Param{{"scheme", "FIFO"}, {"rate", "50"}},
		Point:    3, Rep: 1, Seed: 99,
		Duration: 10 * sim.Second, Warmup: 2 * sim.Second,
	}
	key := base.CacheKey("fp")
	if len(key) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(key))
	}
	// Param order is canonicalized away.
	reordered := base
	reordered.Params = []Param{{"rate", "50"}, {"scheme", "FIFO"}}
	if reordered.CacheKey("fp") != key {
		t.Fatal("param order changed the key")
	}
	// The point index is display metadata, not identity — the seed
	// already encodes the coordinates.
	moved := base
	moved.Point = 7
	if moved.CacheKey("fp") != key {
		t.Fatal("point index changed the key")
	}
	// Every result-affecting coordinate changes the key.
	mutations := []func(*JobSpec){
		func(j *JobSpec) { j.Scenario = "udp2" },
		func(j *JobSpec) { j.Params[0].Value = "Airtime" },
		func(j *JobSpec) { j.Rep = 2 },
		func(j *JobSpec) { j.Seed = 100 },
		func(j *JobSpec) { j.Duration++ },
		func(j *JobSpec) { j.Warmup++ },
	}
	for i, mutate := range mutations {
		j := base
		j.Params = append([]Param{}, base.Params...)
		mutate(&j)
		if j.CacheKey("fp") == key {
			t.Errorf("mutation %d did not change the key", i)
		}
	}
	if base.CacheKey("fp2") == key {
		t.Error("fingerprint did not change the key")
	}
}

// TestSuggest: did-you-mean candidates for mistyped scenario names.
func TestSuggest(t *testing.T) {
	names := []string{"latency", "udp", "fairness", "throughput", "dense", "mixed"}
	cases := []struct {
		in   string
		want string // first suggestion, "" for none
	}{
		{"farness", "fairness"},
		{"fair", "fairness"},
		{"throghput", "throughput"},
		{"dens", "dense"},
		{"upd", "udp"},
		{"zzzzzzz", ""},
		{"", ""},
	}
	for _, c := range cases {
		got := Suggest(c.in, names)
		if c.want == "" {
			if len(got) != 0 {
				t.Errorf("Suggest(%q) = %v, want none", c.in, got)
			}
			continue
		}
		if len(got) == 0 || got[0] != c.want {
			t.Errorf("Suggest(%q) = %v, want %q first", c.in, got, c.want)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var calls int
	var last int
	_, err := synthetic().Execute(Plan{
		Scenarios: []string{"beta"}, Reps: 6, Workers: 1,
		OnProgress: func(p ProgressInfo) {
			calls++
			last = p.Total
			if p.Done < 1 || p.Done > p.Total {
				t.Errorf("done %d out of range", p.Done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 || last != 6 {
		t.Fatalf("progress calls = %d (total %d), want 6", calls, last)
	}
}
