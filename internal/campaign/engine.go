package campaign

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Default sizing of a Plan: Execute fills zero fields from these. They
// are scaled down from the paper's 30 repetitions of 30 s for
// interactive use.
const (
	DefaultReps     = 3
	DefaultDuration = 10 * sim.Second
	DefaultWarmup   = 2 * sim.Second
	DefaultSeed     = 42
)

// Plan selects and sizes a campaign.
type Plan struct {
	// Scenarios names the scenarios to run, in the given order, each at
	// most once; empty means every registered scenario in registration
	// order.
	Scenarios []string

	// Overrides replaces the listed axes' value sets (a sweep). Each
	// named axis must exist on at least one selected scenario; scenarios
	// without it are unaffected.
	Overrides map[string][]string

	Reps     int      // repetitions per grid point (default 3)
	Duration sim.Time // measured interval per repetition (default 10 s)
	Warmup   sim.Time // settling time excluded from measurement (default 2 s)
	BaseSeed uint64   // campaign base seed (default 42)
	Workers  int      // worker goroutines (default GOMAXPROCS)

	// OnProgress, if set, is called after each completed run with a
	// snapshot of the matrix: done/total plus the cache-hit versus
	// simulated split. Calls may come from any worker.
	OnProgress func(ProgressInfo)

	// Cache, if set, is the content-addressed result store and the
	// campaign's only durable state: Execute consults it (under
	// Fingerprint) before scheduling each job and writes completed
	// results back, so repeated runs, sweep supersets and reruns of an
	// interrupted campaign only simulate cells never seen before.
	Cache BlobStore

	// Fingerprint identifies the code that produces results, scoping
	// cache keys so results never leak across code changes. Empty means
	// ExecutableFingerprint() when the cache is in use.
	Fingerprint string

	// Context, if set, bounds the campaign: when it is cancelled the
	// engine stops scheduling new jobs, drains the ones in flight (into
	// the cache as usual) and returns an error matching ErrInterrupted.
	// Nil means context.Background().
	Context context.Context
}

func (p *Plan) fill() error {
	if p.Reps <= 0 {
		p.Reps = DefaultReps
	}
	if p.Duration <= 0 {
		p.Duration = DefaultDuration
	}
	if p.Warmup <= 0 {
		p.Warmup = DefaultWarmup
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = DefaultSeed
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Context == nil {
		p.Context = context.Background()
	}
	if p.Fingerprint == "" && p.Cache != nil {
		fp, err := ExecutableFingerprint()
		if err != nil {
			return err
		}
		p.Fingerprint = fp
	}
	return nil
}

// Result is a completed campaign: one aggregated Cell per (scenario,
// grid point), in deterministic plan order. Marshalling a Result produces
// byte-identical artifacts for any worker count.
type Result struct {
	BaseSeed    uint64  `json:"base_seed"`
	Reps        int     `json:"reps"`
	DurationSec float64 `json:"duration_sec"`
	WarmupSec   float64 `json:"warmup_sec"`
	Cells       []*Cell `json:"cells"`

	// Runs is the executed matrix size (cells × reps).
	Runs int `json:"runs"`

	// Stats reports how the matrix was satisfied (cache hits versus
	// simulated runs). It is excluded from the JSON artifact so warm
	// and cold runs stay byte-identical.
	Stats ExecStats `json:"-"`
}

// job is one schedulable run: a repetition of a scenario at a grid point.
type job struct {
	spec JobSpec
	cell int // index into the cell table
}

// Execute expands the plan into a (scenario, point, repetition) matrix,
// shards it across the worker pool, and aggregates. The first run error
// (in matrix order) aborts the campaign's result.
func (r *Registry) Execute(p Plan) (*Result, error) {
	if err := p.fill(); err != nil {
		return nil, err
	}
	selected := r.scenarios
	if len(p.Scenarios) > 0 {
		selected = make([]*Scenario, 0, len(p.Scenarios))
		for i, name := range p.Scenarios {
			sc := r.Get(name)
			if sc == nil {
				return nil, fmt.Errorf("campaign: unknown scenario %q (have %v)", name, r.Names())
			}
			if slices.Contains(p.Scenarios[:i], name) {
				return nil, fmt.Errorf("campaign: scenario %q selected twice", name)
			}
			selected = append(selected, sc)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("campaign: no scenarios registered")
	}
	// Every override must name an axis of at least one selected scenario;
	// scenarios without the axis simply don't sweep it.
	for name := range p.Overrides {
		found := false
		var known []string
		for _, sc := range selected {
			for _, a := range sc.Axes {
				known = append(known, a.Name)
				if a.Name == name {
					found = true
				}
			}
		}
		if !found {
			sort.Strings(known)
			return nil, fmt.Errorf("campaign: unknown axis %q (have %v)", name, known)
		}
	}

	// Expand the matrix up front: the full job list, with seeds derived
	// from coordinates, exists before any worker starts.
	type cellKey struct {
		sc     *Scenario
		params []Param
		seeds  []uint64
	}
	var cells []cellKey
	var jobs []job
	for _, sc := range selected {
		points, err := expand(sc.Axes, p.Overrides)
		if err != nil {
			return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
		}
		for pi, point := range points {
			params := make([]Param, len(sc.Axes))
			for ai, a := range sc.Axes {
				params[ai] = Param{Name: a.Name, Value: point[ai]}
			}
			ck := cellKey{sc: sc, params: params, seeds: make([]uint64, p.Reps)}
			cellIdx := len(cells)
			for rep := 0; rep < p.Reps; rep++ {
				seed := DeriveSeed(p.BaseSeed, sc.Name, pi, rep)
				ck.seeds[rep] = seed
				jobs = append(jobs, job{
					spec: JobSpec{
						Scenario: sc.Name, Params: params, Point: pi,
						Rep: rep, Seed: seed,
						Duration: p.Duration, Warmup: p.Warmup,
					},
					cell: cellIdx,
				})
			}
			cells = append(cells, ck)
		}
	}

	// Resolve cache hits first: cells a previous campaign computed —
	// including an interrupted run of this one — decode straight into
	// the result matrix and never reach a worker. A blob that fails to
	// decode is a miss (recompute), never an error.
	outs := make([]*Metrics, len(jobs))
	errs := make([]error, len(jobs))
	keys := make([]string, len(jobs))
	st := ExecStats{Total: len(jobs)}
	var miss []int

	// mu guards the completion state (stats, progress) the pool's
	// workers share.
	var mu sync.Mutex
	progress := func() {
		if p.OnProgress != nil {
			p.OnProgress(ProgressInfo{
				Done: st.FromCache + st.Simulated, Total: st.Total,
				FromCache: st.FromCache, Simulated: st.Simulated,
			})
		}
	}

	for i := range jobs {
		if p.Cache != nil {
			keys[i] = jobs[i].spec.CacheKey(p.Fingerprint)
			if blob, ok := p.Cache.Get(keys[i]); ok {
				if m, err := DecodeMetrics(blob); err == nil {
					outs[i] = m
					st.FromCache++
					progress()
					continue
				}
			}
		}
		miss = append(miss, i)
	}

	// complete records one simulated result: write-back to the cache
	// (best-effort), then progress. Any worker may call it.
	complete := func(i int, m *Metrics, err error) {
		mu.Lock()
		defer mu.Unlock()
		outs[i], errs[i] = m, err
		if err != nil {
			progress()
			return
		}
		st.Simulated++
		if p.Cache != nil {
			if blob, encErr := EncodeMetrics(m); encErr == nil {
				p.Cache.Put(keys[i], blob)
			}
		}
		progress()
	}

	// Shard the misses across the worker pool. Results land in a slice
	// indexed by job position, so completion order is irrelevant. A
	// failed job stops further scheduling (in-flight runs drain) — a
	// long campaign should not burn every core before reporting a broken
	// cell. Context cancellation likewise stops scheduling and drains,
	// so every finished cell reaches the cache.
	ctx := p.Context
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(p.Workers, len(miss)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				m, err := runJob(cells[jobs[i].cell].sc, jobs[i].spec)
				if err != nil {
					failed.Store(true)
				}
				complete(i, m, err)
			}
		}()
	}
feed:
	for _, i := range miss {
		if failed.Load() {
			break
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if ctx.Err() != nil {
		if p.Cache == nil {
			return nil, fmt.Errorf("campaign: %w (no cache, so no finished cell was kept; rerun to start over)", ErrInterrupted)
		}
		return nil, fmt.Errorf("campaign: %w (finished cells are cached; rerun to simulate only the rest)", ErrInterrupted)
	}
	for i, err := range errs {
		if err != nil {
			s := jobs[i].spec
			return nil, fmt.Errorf("campaign: scenario %q rep %d (seed %d): %w",
				s.Scenario, s.Rep, s.Seed, err)
		}
	}

	// Aggregate in matrix order — deterministic fold, worker-independent.
	res := &Result{
		BaseSeed: p.BaseSeed, Reps: p.Reps,
		DurationSec: p.Duration.Seconds(), WarmupSec: p.Warmup.Seconds(),
		Runs: len(jobs), Stats: st,
	}
	byCell := make([][]*Metrics, len(cells))
	for i := range byCell {
		byCell[i] = make([]*Metrics, 0, p.Reps)
	}
	for i, j := range jobs {
		byCell[j.cell] = append(byCell[j.cell], outs[i])
	}
	for ci, ck := range cells {
		res.Cells = append(res.Cells, aggregateCell(ck.sc, ck.params, ck.seeds, byCell[ci]))
	}
	return res, nil
}

// runJob executes one run of the expanded matrix, converting a panic in
// scenario code into an error so a bad cell cannot take down the whole
// campaign process.
func runJob(sc *Scenario, spec JobSpec) (m *Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	params := make(map[string]string, len(spec.Params))
	for _, p := range spec.Params {
		params[p.Name] = p.Value
	}
	m, err = sc.Run(Ctx{
		Seed: spec.Seed, Rep: spec.Rep,
		Duration: spec.Duration, Warmup: spec.Warmup,
		params: params,
	})
	if err == nil && m == nil {
		err = fmt.Errorf("scenario returned no metrics")
	}
	return m, err
}
