package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// JobSpec is the portable identity of one run: the scenario name, the
// resolved grid point (ordered parameter assignment plus the point
// index the seed derivation uses), the repetition, the derived seed and
// the measurement timing. It is everything a scenario run receives, and
// everything the cache needs to key its result.
type JobSpec struct {
	Scenario string
	Params   []Param
	Point    int
	Rep      int
	Seed     uint64
	Duration sim.Time
	Warmup   sim.Time
}

// CacheKey derives the content address of this job's result under the
// given code fingerprint: a hex SHA-256 over the canonicalized
// coordinates. Parameters are sorted by name, so axis declaration order
// is irrelevant; every field that can change the result — scenario,
// parameter values, repetition, seed, measurement timing, and the code
// that ran — is folded in, so a stale result can never be returned for
// changed inputs.
func (j JobSpec) CacheKey(fingerprint string) string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w("hj17-cell-v1", fingerprint, j.Scenario,
		strconv.FormatInt(int64(j.Duration), 10),
		strconv.FormatInt(int64(j.Warmup), 10),
		strconv.Itoa(j.Rep),
		strconv.FormatUint(j.Seed, 10))
	params := make([]Param, len(j.Params))
	copy(params, j.Params)
	sort.Slice(params, func(a, b int) bool { return params[a].Name < params[b].Name })
	for _, p := range params {
		w(p.Name, p.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BlobStore is the content-addressed result cache Execute consults
// before scheduling a job and writes back on completion. Get reports a
// miss for unknown or unreadable keys; Put failures are best-effort
// (the engine proceeds without caching).
type BlobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, blob []byte) error
}

// ErrInterrupted marks a campaign stopped by Plan.Context cancellation
// (e.g. SIGINT). Every cell completed before the interrupt has been
// written back to Plan.Cache, if one is set (best-effort, like every
// write-back), so rerunning the same plan simulates only the rest; the
// partial matrix is not aggregated into a Result.
var ErrInterrupted = errors.New("campaign interrupted")

// ProgressInfo is a campaign progress snapshot: how much of the matrix
// is done, and how it got done — cells served from the cache versus
// cells actually simulated. ETA estimation should use the
// simulated-cell rate only; cached cells resolve in microseconds and
// would otherwise make the forecast absurdly optimistic.
type ProgressInfo struct {
	Done      int // completed runs (FromCache + Simulated)
	Total     int // matrix size
	FromCache int // runs served from the cache
	Simulated int // runs actually executed
}

// ExecStats summarises how a campaign's matrix was satisfied. It lives
// outside the JSON artifact: a warm run must produce byte-identical
// artifacts to a cold one, and a hit counter in the output would break
// that.
type ExecStats struct {
	Total     int
	FromCache int
	Simulated int
}
