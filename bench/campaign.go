package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/cache"
	"repro/internal/exp"
	"repro/internal/sim"
)

// setupReps is how many times a campaign child times its set-up: the
// median of 51 moved by 12–20% from one process to the next, of 501 by
// 9–11%.
const setupReps = 501

// fingerprint scopes the benchmark's cache keys; every run starts from
// an empty cache, so it need only be fixed.
const fingerprint = "bench"

// campaignPlan is the plan a user's `campaign run` executes: every
// scenario at the default size, one worker per CPU.
func campaignPlan(c config, store campaign.BlobStore) campaign.Plan {
	p := campaign.Plan{
		Workers: runtime.NumCPU(), Cache: store,
		Fingerprint: fingerprint, BaseSeed: c.seed,
	}
	if c.tiny {
		// The cells the shape claims read, long enough for them to hold.
		p.Scenarios = []string{"udp", "latency", "fairness"}
		p.Overrides = map[string][]string{"scheme": {"FIFO", "FQ-MAC", "Airtime"}, "traffic": {"udp"}}
		p.Reps, p.Duration, p.Warmup = 1, 4*sim.Second, sim.Second
	}
	return p
}

// campaignSpans are the traced passes' clock reads at the campaign's
// coarse boundaries: cells and cache operations, plus the blobs the
// cache moved.
type campaignSpans struct {
	mu      sync.Mutex
	cells   []cellSpan // this pass
	lastGet time.Time  // this pass
	blobs   [][]byte   // this pass

	cellMs, getUs, putUs []float64 // every pass
	firstBlobs           [][]byte  // the first pass's blobs
}

type cellSpan struct {
	scenario   string
	start, end time.Time
}

// reset starts a pass.
func (sp *campaignSpans) reset() {
	sp.cells, sp.lastGet, sp.blobs = nil, time.Time{}, nil
}

// passMetrics adds the pass's span metrics: the cells' busy share of the
// workers, the tail from the last job's end to Execute's return, the
// artifact time, the cache's bytes and each scenario's cell time.
func (sp *campaignSpans) passMetrics(add func(string, float64), scenarios []string, start time.Time, out passOut, workers int) {
	var busy time.Duration
	last := sp.lastGet
	byScenario := make(map[string]float64)
	for _, cs := range sp.cells {
		d := cs.end.Sub(cs.start)
		busy += d
		sp.cellMs = append(sp.cellMs, float64(d)/1e6)
		byScenario[cs.scenario] += d.Seconds()
		if cs.end.After(last) {
			last = cs.end
		}
	}
	for _, name := range scenarios {
		add("campaign.scenario."+name+".cell_s", byScenario[name])
	}
	add("campaign.worker_idle_frac", 1-busy.Seconds()/(out.execEnd.Sub(start).Seconds()*float64(workers)))
	if !last.IsZero() {
		add("campaign.tail_s", out.execEnd.Sub(last).Seconds())
	}
	add("campaign.artifact_ms", float64(out.artDur)/1e6)
	var n int
	for _, blob := range sp.blobs {
		n += len(blob)
	}
	add("cache.blob_bytes", float64(n))
	if sp.firstBlobs == nil {
		sp.firstBlobs = sp.blobs
	}
}

// probedRegistry copies reg with every scenario's Run followed by a host
// probe timing, taken between cells on the worker that ran the cell. With
// spans (a traced run), each cell is also a span whose CPU samples carry
// phase=run and the scenario's name, and the probe's carry phase=probe.
func probedRegistry(reg *campaign.Registry, m *measurement, sp *campaignSpans) *campaign.Registry {
	traced := sp != nil
	out := campaign.NewRegistry()
	for _, sc := range reg.Scenarios() {
		wrapped := *sc
		run, name := sc.Run, sc.Name
		wrapped.Run = func(ctx campaign.Ctx) (mt *campaign.Metrics, err error) {
			start := time.Now()
			inPhase(traced, "run", func() { mt, err = run(ctx) }, "scenario", name)
			if traced {
				end := time.Now()
				sp.mu.Lock()
				sp.cells = append(sp.cells, cellSpan{name, start, end})
				sp.mu.Unlock()
			}
			inPhase(traced, "probe", m.probe.tick)
			return mt, err
		}
		out.Register(&wrapped)
	}
	return out
}

// spanStore times a BlobStore's operations and keeps the blobs it saw.
type spanStore struct {
	store campaign.BlobStore
	sp    *campaignSpans
}

func (s spanStore) Get(key string) ([]byte, bool) {
	t := time.Now()
	blob, ok := s.store.Get(key)
	end := time.Now()
	s.sp.mu.Lock()
	s.sp.getUs = append(s.sp.getUs, float64(end.Sub(t))/1e3)
	s.sp.lastGet = end
	if ok {
		s.sp.blobs = append(s.sp.blobs, blob)
	}
	s.sp.mu.Unlock()
	return blob, ok
}

func (s spanStore) Put(key string, blob []byte) error {
	t := time.Now()
	err := s.store.Put(key, blob)
	d := time.Since(t)
	s.sp.mu.Lock()
	s.sp.putUs = append(s.sp.putUs, float64(d)/1e3)
	s.sp.blobs = append(s.sp.blobs, blob)
	s.sp.mu.Unlock()
	return err
}

// passOut is one executed campaign pass.
type passOut struct {
	res      *campaign.Result
	artifact []byte
	execEnd  time.Time
	artDur   time.Duration
}

// executePass runs the plan and writes its artifacts, as `campaign run`
// does: the JSON artifact and the rendered report.
func executePass(reg *campaign.Registry, plan campaign.Plan) (passOut, error) {
	var out passOut
	res, err := reg.Execute(plan)
	out.execEnd = time.Now()
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return out, err
	}
	if res.Render() == "" {
		return out, fmt.Errorf("empty report")
	}
	out.res, out.artifact = res, buf.Bytes()
	out.artDur = time.Since(out.execEnd)
	return out, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// campaignSetup is the campaign's set-up: build the registry and open a
// cache directory.
func campaignSetup(dir string) (*campaign.Registry, error) {
	reg := exp.NewRegistry()
	_, err := cache.Open(dir)
	return reg, err
}

// runCampaign measures campaign-cold (a fresh cache every pass) or
// campaign-warm (a cache filled once in set-up).
func runCampaign(c config, m *measurement, warm bool) error {
	reg, err := timeCampaignSetup(c, m)
	if err != nil {
		return err
	}
	var warmStore *cache.Store
	var want string // the artifact every warm pass must reproduce
	if warm {
		store, err := cache.Open(filepath.Join(c.work, "warm"))
		if err != nil {
			return err
		}
		t := time.Now()
		out, err := executePass(reg, campaignPlan(c, store))
		if err != nil {
			return fmt.Errorf("filling the cache: %w", err)
		}
		m.Layer["cache.fill_s"] = time.Since(t).Seconds()
		checkCampaign(m, out, c.campaignOut)
		warmStore, want = store, digest(out.artifact)
	}

	var sp *campaignSpans
	var prof *profiler
	if c.traced {
		sp = &campaignSpans{}
		if prof, err = startProfiler(c.work); err != nil {
			return err
		}
	}
	reg = probedRegistry(reg, m, sp)

	series := make(map[string][]float64) // per-pass values; each metric reports its median
	var ops, allocs float64
	c.eachPass(func(p int) {
		store := warmStore
		if !warm {
			dir := filepath.Join(c.work, fmt.Sprintf("cold-%d", p))
			defer os.RemoveAll(dir)
			s, err := cache.Open(dir)
			if err != nil {
				m.Attempted++
				m.fail(1, "pass %d: %v", p, err)
				return
			}
			store = s
		}
		plan := campaignPlan(c, store)
		if sp != nil {
			sp.reset()
			plan.Cache = spanStore{store, sp}
		}

		runtime.GC()
		m.probe.tick()
		var mem memDelta
		mem.start()
		prof.sampleAllocs(true)
		t := time.Now()
		var out passOut
		var err error
		inPhase(c.traced, "engine", func() { out, err = executePass(reg, plan) })
		wall := time.Since(t)
		prof.sampleAllocs(false)
		mem.stop()
		if err != nil {
			m.Attempted++
			m.fail(1, "pass %d: %v", p, err)
			return
		}

		runs := out.res.Runs
		m.Attempted += runs
		d := digest(out.artifact)
		switch {
		case p == 0 && warm && d != want:
			m.fail(runs, "warm artifact differs from the fill pass")
		case p == 0 && !warm:
			checkCampaign(m, out, c.campaignOut)
		case p > 0 && d != m.Digest:
			m.fail(runs, "pass %d artifact differs from pass 0", p)
		}
		if p == 0 {
			m.Digest = d
		}
		st := out.res.Stats
		path, got := "simulated", st.Simulated
		if warm {
			path, got = "cache", st.FromCache
		}
		if got != st.Total {
			m.fail(runs, "pass %d: %d of %d runs took the %s path", p, got, st.Total, path)
		}

		n := float64(runs)
		ops += n
		allocs += mem.mallocs()
		m.pass(t, wall, n, mem.mallocs())
		add := func(name string, v float64) { series[name] = append(series[name], v) }
		add("campaign.cells_per_s", n/wall.Seconds())
		add("campaign.sim_s_per_wall_s", float64(st.Simulated)*(out.res.DurationSec+out.res.WarmupSec)/wall.Seconds())
		add("cache.hit_ratio", ratio(float64(st.FromCache), float64(st.Total)))
		add("gc.cycles", mem.gcs())
		add("gc.pause_ms", mem.pauseMs())
		if sp != nil {
			sp.passMetrics(add, reg.Names(), t, out, plan.Workers)
		}
	})

	if !c.traced {
		for name, xs := range series {
			m.Layer[name] = median(xs)
		}
		return nil
	}
	for _, name := range []string{"campaign.worker_idle_frac", "campaign.tail_s", "campaign.artifact_ms", "cache.blob_bytes"} {
		m.Layer[name] = median(series[name])
	}
	for _, name := range reg.Names() {
		name = "campaign.scenario." + name + ".cell_s"
		m.Layer[name] = median(series[name])
	}
	m.Layer["campaign.cell_ms.p50"] = median(sp.cellMs)
	if p90, err := tailPercentile(sp.cellMs, 0.9); err == nil {
		m.Layer["campaign.cell_ms.p90"] = p90
	}
	m.Layer["cache.get_us.p50"] = median(sp.getUs)
	m.Layer["cache.put_us.p50"] = median(sp.putUs)
	enc, dec, err := retimeCodec(sp.firstBlobs)
	if err != nil {
		m.fail(1, "codec: %v", err)
	}
	m.Layer["codec.encode_us.p50"] = enc
	m.Layer["codec.decode_us.p50"] = dec
	return prof.layerMetrics(m.Layer, ops, ratio(allocs, ops))
}

// timeCampaignSetup times the campaign's set-up setupReps times (a few
// at test size), measures the live heap one set-up leaves, and returns
// that set-up's registry. An untimed first set-up creates the cache
// directory, so the timed ones open it as a returning user does: creating
// a directory costs the host filesystem's time, which swings far more
// than the program's own.
func timeCampaignSetup(c config, m *measurement) (*campaign.Registry, error) {
	dir := filepath.Join(c.work, "setup")
	if _, err := campaignSetup(dir); err != nil {
		return nil, err
	}
	reps := setupReps
	if c.tiny {
		reps = 5
	}
	var setupMs []float64
	for i := 0; i < reps; i++ {
		var err error
		secs, raw := m.setup(func() { _, err = campaignSetup(dir) })
		if err != nil {
			return nil, err
		}
		m.setupSample(secs, raw)
		setupMs = append(setupMs, secs*1e3)
	}
	m.Layer["exp.setup_ms.p50"] = median(setupMs)
	heap0 := liveHeap()
	reg, err := campaignSetup(dir)
	m.Layer["exp.world_heap_kb"] = (liveHeap() - heap0) / 1024
	return reg, err
}

// retimeCodec times decoding each blob and encoding the result again,
// and checks the round trip is exact.
func retimeCodec(blobs [][]byte) (encUs, decUs float64, err error) {
	var enc, dec []float64
	for _, blob := range blobs {
		t := time.Now()
		mt, err := campaign.DecodeMetrics(blob)
		d := time.Since(t)
		if err != nil {
			return 0, 0, err
		}
		t = time.Now()
		again, err := campaign.EncodeMetrics(mt)
		e := time.Since(t)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(again, blob) {
			return 0, 0, fmt.Errorf("re-encoded blob differs from the original")
		}
		dec = append(dec, float64(d)/1e3)
		enc = append(enc, float64(e)/1e3)
	}
	return median(enc), median(dec), nil
}

// checkCampaign checks a first pass: the paper's shape claims hold on
// its artifact, which is also written out if asked.
func checkCampaign(m *measurement, out passOut, path string) {
	if err := checkClaims(out.res); err != nil {
		m.fail(out.res.Runs, "claims: %v", err)
	}
	if path != "" {
		if err := os.WriteFile(path, out.artifact, 0o644); err != nil {
			m.fail(0, "writing %s: %v", path, err)
		}
	}
}

// checkClaims checks three of EXPERIMENTS.md's shape claims on an
// artifact: the anomaly (FIFO gives the slow station most of the
// airtime), the latency gap (FIFO's slow-station RTT is many times
// FQ-MAC's) and airtime fairness (the Airtime scheme is fair under UDP).
func checkClaims(res *campaign.Result) error {
	find := func(scenario string, params ...string) *campaign.Cell {
	cells:
		for _, cell := range res.Cells {
			if cell.Scenario != scenario {
				continue
			}
			for i := 0; i+1 < len(params); i += 2 {
				found := false
				for _, p := range cell.Params {
					found = found || (p.Name == params[i] && p.Value == params[i+1])
				}
				if !found {
					continue cells
				}
			}
			return cell
		}
		return nil
	}
	scalar := func(cell *campaign.Cell, name string) (float64, bool) {
		if cell != nil {
			for _, s := range cell.Metrics {
				if s.Name == name {
					return s.Mean, true
				}
			}
		}
		return 0, false
	}
	medianOf := func(cell *campaign.Cell, name string) (float64, bool) {
		if cell != nil {
			for _, d := range cell.Dists {
				if d.Name == name {
					return d.Median, true
				}
			}
		}
		return 0, false
	}

	share, ok := scalar(find("udp", "scheme", "FIFO"), "share-slow")
	if !ok || share <= 0.6 {
		return fmt.Errorf("anomaly: FIFO udp share-slow %.3f, want > 0.6 (found %v)", share, ok)
	}
	fifo, ok1 := medianOf(find("latency", "scheme", "FIFO"), "slow-rtt-ms")
	fqmac, ok2 := medianOf(find("latency", "scheme", "FQ-MAC"), "slow-rtt-ms")
	if !ok1 || !ok2 || fifo < 5*fqmac {
		return fmt.Errorf("latency: FIFO slow-rtt median %.1f ms, want >= 5x FQ-MAC's %.1f ms", fifo, fqmac)
	}
	jain, ok := scalar(find("fairness", "scheme", "Airtime", "traffic", "udp"), "jain")
	if !ok || jain < 0.95 {
		return fmt.Errorf("fairness: Airtime udp Jain %.3f, want >= 0.95 (found %v)", jain, ok)
	}
	return nil
}
