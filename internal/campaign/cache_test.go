package campaign_test

// Engine-level tests of the result cache — the campaign's only durable
// store — in an external test package so they can compose the campaign
// engine with its cache subpackage the way cmd/campaign does.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/campaign"
	"repro/internal/campaign/cache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// counting wraps a registry-facing scenario with an execution counter
// so tests can assert which cells were simulated versus cached.
func synthetic(runs *int) *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(&campaign.Scenario{
		Name: "alpha",
		Desc: "seed-dependent scalar and distribution",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"a", "b", "c"}},
			{Name: "rate", Values: []string{"10", "50"}},
		},
		Run: func(ctx campaign.Ctx) (*campaign.Metrics, error) {
			if runs != nil {
				*runs++ // races don't matter at Workers: 1
			}
			rate, err := strconv.Atoi(ctx.Param("rate"))
			if err != nil {
				return nil, err
			}
			m := campaign.NewMetrics()
			m.Add("seed-lo", float64(ctx.Seed%1000))
			m.Add("rate-x2", float64(2*rate))
			var s stats.Sample
			x := ctx.Seed
			for i := 0; i < 24; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s.Add(float64(x % 997))
			}
			m.AddSample("dist", &s)
			return m, nil
		},
	})
	return r
}

func basePlan() campaign.Plan {
	return campaign.Plan{
		Reps: 3, Duration: 2 * sim.Second, Warmup: sim.Second,
		BaseSeed: 17, Workers: 1, Fingerprint: "fp-A",
	}
}

func artifact(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdWarmByteIdentity: a second run against a populated cache
// simulates nothing and produces byte-identical artifacts.
func TestColdWarmByteIdentity(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	p := basePlan()
	p.Cache = store

	cold, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	coldRuns := runs
	if coldRuns != cold.Runs || cold.Stats.Simulated != cold.Runs || cold.Stats.FromCache != 0 {
		t.Fatalf("cold: runs=%d stats=%+v", coldRuns, cold.Stats)
	}

	warm, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if runs != coldRuns {
		t.Fatalf("warm run simulated %d cells", runs-coldRuns)
	}
	if warm.Stats.FromCache != warm.Runs || warm.Stats.Simulated != 0 {
		t.Fatalf("warm stats = %+v", warm.Stats)
	}
	if !bytes.Equal(artifact(t, cold), artifact(t, warm)) {
		t.Fatal("warm artifact differs from cold")
	}
}

// TestSupersetReusesSharedCells: extending an axis keeps the cache hits
// for the unchanged points when the point indices line up (values
// appended at the end).
func TestSupersetReusesSharedCells(t *testing.T) {
	store, _ := cache.Open(t.TempDir())
	var runs int
	p := basePlan()
	p.Cache = store
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50"}}
	if _, err := synthetic(&runs).Execute(p); err != nil {
		t.Fatal(err)
	}
	first := runs
	// Append a value to the swept axis: the original points keep their
	// (point index, seed) coordinates, so their cells hit.
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50", "90"}}
	super, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs - first; got != p.Reps {
		t.Fatalf("superset simulated %d runs, want %d (one new point)", got, p.Reps)
	}
	if super.Stats.FromCache != 2*p.Reps {
		t.Fatalf("superset cache hits = %d, want %d", super.Stats.FromCache, 2*p.Reps)
	}
}

// TestFingerprintInvalidation: results cached under one code
// fingerprint are invisible to another.
func TestFingerprintInvalidation(t *testing.T) {
	store, _ := cache.Open(t.TempDir())
	var runs int
	p := basePlan()
	p.Cache = store
	if _, err := synthetic(&runs).Execute(p); err != nil {
		t.Fatal(err)
	}
	first := runs
	p.Fingerprint = "fp-B" // "the code changed"
	res, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FromCache != 0 || runs != 2*first {
		t.Fatalf("stale fingerprint leaked: stats=%+v runs=%d", res.Stats, runs)
	}
}

// TestCorruptedEntriesRecompute: damaging cached entries on disk makes
// the next run recompute them — same artifact, no crash.
func TestCorruptedEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	store, _ := cache.Open(dir)
	var runs int
	p := basePlan()
	p.Cache = store
	cold, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	coldRuns := runs

	// Vandalize every entry: truncate some, bit-flip others.
	i := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return nil
		}
		raw, _ := os.ReadFile(path)
		if i%2 == 0 && len(raw) > 4 {
			raw = raw[:len(raw)/2]
		} else if len(raw) > 0 {
			raw[len(raw)-1] ^= 0xFF
		}
		os.WriteFile(path, raw, 0o644)
		i++
		return nil
	})
	if i == 0 {
		t.Fatal("no cache entries found to corrupt")
	}

	warm, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2*coldRuns || warm.Stats.Simulated != warm.Runs {
		t.Fatalf("corrupted entries not recomputed: stats=%+v", warm.Stats)
	}
	if !bytes.Equal(artifact(t, cold), artifact(t, warm)) {
		t.Fatal("artifact differs after corruption recovery")
	}
	// And the rewritten entries serve the next run.
	res, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FromCache != res.Runs {
		t.Fatalf("repaired cache not hit: %+v", res.Stats)
	}
}

// TestResumeMidCampaign: a campaign that crashes after 7 cells leaves
// them in the cache; rerunning it at 1, 4 or 8 workers simulates only
// the rest and writes the uninterrupted artifact, and a second rerun
// simulates nothing.
func TestResumeMidCampaign(t *testing.T) {
	ref, err := synthetic(nil).Execute(basePlan())
	if err != nil {
		t.Fatal(err)
	}
	want := artifact(t, ref)

	for _, workers := range []int{1, 4, 8} {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Crashing first run: every run after the 7th panics, so the
		// campaign fails with exactly 7 cells cached.
		var count int
		r := campaign.NewRegistry()
		inner := synthetic(nil).Get("alpha")
		r.Register(&campaign.Scenario{
			Name: "alpha", Desc: inner.Desc, Axes: inner.Axes,
			Run: func(ctx campaign.Ctx) (*campaign.Metrics, error) {
				if count >= 7 { // Workers: 1 below, so no race
					panic("simulated crash")
				}
				count++
				return inner.Run(ctx)
			},
		})
		p := basePlan()
		p.Cache = store
		if _, err := r.Execute(p); err == nil {
			t.Fatal("crashed campaign reported success")
		}
		if n := store.Len(); n != 7 {
			t.Fatalf("crash left %d cached cells, want 7", n)
		}

		p.Workers = workers
		for rerun, wantCached := range []int{7, ref.Runs} {
			res, err := synthetic(nil).Execute(p)
			if err != nil {
				t.Fatalf("workers=%d, rerun %d: %v", workers, rerun, err)
			}
			if res.Stats.FromCache != wantCached || res.Stats.Simulated != res.Runs-wantCached {
				t.Fatalf("workers=%d, rerun %d: stats = %+v, want %d cached", workers, rerun, res.Stats, wantCached)
			}
			if !bytes.Equal(artifact(t, res), want) {
				t.Fatalf("workers=%d, rerun %d: artifact differs from uninterrupted run", workers, rerun)
			}
		}
	}
}

// TestProgressReportsCacheSplit: OnProgress distinguishes cached from
// simulated cells and sums to done.
func TestProgressReportsCacheSplit(t *testing.T) {
	store, _ := cache.Open(t.TempDir())
	p := basePlan()
	p.Cache = store
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50"}}
	if _, err := synthetic(nil).Execute(p); err != nil {
		t.Fatal(err)
	}
	// Second run over a superset: 6 cached + 3 fresh.
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50", "90"}}
	var last campaign.ProgressInfo
	calls := 0
	p.OnProgress = func(pi campaign.ProgressInfo) {
		calls++
		if pi.FromCache+pi.Simulated != pi.Done {
			t.Errorf("cache split %d+%d != done %d", pi.FromCache, pi.Simulated, pi.Done)
		}
		last = pi
	}
	res, err := synthetic(nil).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Runs {
		t.Fatalf("progress calls = %d, want %d", calls, res.Runs)
	}
	if last.Done != res.Runs || last.FromCache != 6 || last.Simulated != 3 {
		t.Fatalf("final progress = %+v", last)
	}
}

// lossyStore is a BlobStore that never keeps a write: Put either fails
// (err set, e.g. ENOSPC) or silently drops the blob.
type lossyStore struct{ err error }

func (lossyStore) Get(string) ([]byte, bool)  { return nil, false }
func (s lossyStore) Put(string, []byte) error { return s.err }

// TestStorageFaults: the local storage faults of the failure model. A
// cache that loses writes — by error or silently — costs only
// recomputation: every cell simulates, on every run, and the artifact
// is byte-identical to a cache-free run.
func TestStorageFaults(t *testing.T) {
	ref, err := synthetic(nil).Execute(basePlan())
	if err != nil {
		t.Fatal(err)
	}
	want := artifact(t, ref)
	cases := []struct {
		name  string
		cache campaign.BlobStore
	}{
		{"cache put ENOSPC", lossyStore{err: syscall.ENOSPC}},
		{"cache write dropped", lossyStore{}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			p := basePlan()
			p.Workers = workers
			p.Cache = c.cache
			for run := 0; run < 2; run++ {
				res, err := synthetic(nil).Execute(p)
				if err != nil {
					t.Fatalf("%s, workers=%d, run %d: %v", c.name, workers, run, err)
				}
				if res.Stats.Simulated != res.Runs {
					t.Fatalf("%s, workers=%d, run %d: stats = %+v, want every cell simulated",
						c.name, workers, run, res.Stats)
				}
				if !bytes.Equal(artifact(t, res), want) {
					t.Fatalf("%s, workers=%d, run %d: artifact differs from cache-free run",
						c.name, workers, run)
				}
			}
		}
	}
}

// TestInterruptDrainsAndResumes: cancelling Plan.Context mid-campaign
// stops scheduling, drains the runs in flight into the cache and
// reports ErrInterrupted; rerunning the same plan simulates only the
// cells the cache lacks and yields the artifact of an uninterrupted
// run. Without a cache the error does not claim any cell was kept.
func TestInterruptDrainsAndResumes(t *testing.T) {
	ref, err := synthetic(nil).Execute(basePlan())
	if err != nil {
		t.Fatal(err)
	}
	want := artifact(t, ref)
	const k = 5
	interrupted := func(workers int, store campaign.BlobStore) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started atomic.Int32
		inner := synthetic(nil).Get("alpha")
		r := campaign.NewRegistry()
		r.Register(&campaign.Scenario{
			Name: "alpha", Desc: inner.Desc, Axes: inner.Axes,
			Run: func(c campaign.Ctx) (*campaign.Metrics, error) {
				if started.Add(1) == k {
					cancel() // SIGINT arrives during the k-th run
				}
				return inner.Run(c)
			},
		})
		p := basePlan()
		p.Workers = workers
		p.Cache = store
		p.Context = ctx
		res, err := r.Execute(p)
		if !errors.Is(err, campaign.ErrInterrupted) || res != nil {
			t.Fatalf("workers=%d: got result %v, err %v; want ErrInterrupted", workers, res != nil, err)
		}
		return err
	}
	for _, workers := range []int{1, 4} {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := interrupted(workers, store); !strings.Contains(err.Error(), "rerun") {
			t.Errorf("workers=%d: %q does not tell the user to rerun", workers, err)
		}
		kept := store.Len()
		if kept < k {
			t.Fatalf("workers=%d: cache holds %d cells, want at least %d", workers, kept, k)
		}
		p := basePlan()
		p.Workers = workers
		p.Cache = store
		rerun, err := synthetic(nil).Execute(p)
		if err != nil {
			t.Fatalf("workers=%d: rerun failed: %v", workers, err)
		}
		if rerun.Stats.FromCache != kept || rerun.Stats.Simulated != rerun.Runs-kept {
			t.Fatalf("workers=%d: rerun stats = %+v with %d cached cells", workers, rerun.Stats, kept)
		}
		if !bytes.Equal(artifact(t, rerun), want) {
			t.Fatalf("workers=%d: rerun artifact differs from uninterrupted run", workers)
		}

		if err := interrupted(workers, nil); !strings.Contains(err.Error(), "no finished cell was kept") {
			t.Errorf("workers=%d, no cache: %q claims cells were kept", workers, err)
		}
	}
}
