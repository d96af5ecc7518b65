package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// config sizes one child's measurement.
type config struct {
	workload string
	seed     uint64
	passes   int     // pass count when seconds is 0 (a child uses defaultPasses)
	seconds  float64 // wall budget: a pass starts only if it is predicted to fit
	traced   bool    // profile the passes and record spans
	tiny     bool    // test-sized inputs
	work     string  // scratch directory for caches and profiles

	campaignOut string // where campaign-cold writes its first artifact, if set
}

// measurement is what one child process reports to its parent.
type measurement struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	// Samples holds one value per timed pass of wall_s, ns_per_op and
	// allocs_per_op, and one per set-up of setup_s. Times are
	// host-normalized.
	Samples map[string][]float64 `json:"samples"`

	// Raw holds the same samples of the host-normalized metrics as the
	// clock read them, before normalization.
	Raw map[string][]float64 `json:"raw"`

	// Layer holds the per-layer metrics this child measured.
	Layer map[string]float64 `json:"layer"`

	// Digest identifies pass 0's exact outputs (the campaign artifact, or
	// the testbed worlds' counters); a traced run must reproduce it.
	Digest string `json:"digest"`

	probe   hostProbe
	windows []window // each pass's span, for the probe's timings to pair with
}

type window struct{ from, to time.Time }

func newMeasurement(c config) *measurement {
	return &measurement{
		Workload: c.workload, Traced: c.traced,
		Samples: make(map[string][]float64),
		Raw:     make(map[string][]float64),
		Layer:   make(map[string]float64),
		probe:   hostProbe{k: newProbeKernel()},
	}
}

// fail records a failed check that spoils ops operations.
func (m *measurement) fail(ops int, format string, args ...any) {
	m.Failed += ops
	if len(m.Errors) < 20 {
		m.Errors = append(m.Errors, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) sample(name string, v float64) {
	m.Samples[name] = append(m.Samples[name], v)
}

// pass records one timed pass: the wall time of its timed windows, which
// began at from, its ops and the allocations the windows made. It then
// times the probe kernel, which closes the pass.
func (m *measurement) pass(from time.Time, wall time.Duration, ops, allocs float64) {
	m.windows = append(m.windows, window{from, time.Now()})
	m.sample("wall_s", wall.Seconds())
	m.sample("ns_per_op", ratio(float64(wall), ops))
	m.sample("allocs_per_op", ratio(allocs, ops))
	m.probe.tick()
}

// setup times one set-up step and returns its seconds, normalized by the
// probe kernel timed just before it on the same goroutine, and as the
// clock read them. The step runs once untimed after a collection, then
// again timed: the first allocations after a collection refill the
// allocator's caches and fault in pages the runtime returned to the OS,
// which made the median of a process's campaign set-ups swing by tens of
// percent from one process to the next.
func (m *measurement) setup(step func()) (norm, raw float64) {
	runtime.GC()
	step()
	ref := m.probe.k.time()
	t := time.Now()
	step()
	raw = time.Since(t).Seconds()
	return raw * refProbeMs / ref, raw
}

// setupSample records one setup_s sample.
func (m *measurement) setupSample(norm, raw float64) {
	m.sample("setup_s", norm)
	m.Raw["setup_s"] = append(m.Raw["setup_s"], raw)
}

// measure runs one workload in this process, then normalizes each timed
// pass by the probe timings around it.
func measure(c config) (*measurement, error) {
	m := newMeasurement(c)
	var err error
	switch c.workload {
	case "campaign-cold":
		err = runCampaign(c, m, false)
	case "campaign-warm":
		err = runCampaign(c, m, true)
	case "udp-flood":
		err = runTestbed(c, m, false)
	case "tcp-download":
		err = runTestbed(c, m, true)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
	}
	m.probe.tick()
	m.Layer["host.ref_ms"] = median(m.probe.ms)
	for i, w := range m.windows {
		f := m.probe.factor(w)
		for _, name := range []string{"wall_s", "ns_per_op"} {
			m.Raw[name] = append(m.Raw[name], m.Samples[name][i])
			m.Samples[name][i] *= f
		}
	}
	return m, err
}

// workloadNames lists the workloads in the order a full run measures
// them.
var workloadNames = []string{"campaign-cold", "campaign-warm", "udp-flood", "tcp-download"}

// eachPass calls pass(0), pass(1), ... until the configured pass count,
// or with a wall budget, until the next pass — predicted to take as long
// as the last — would end past it.
func (c config) eachPass(pass func(p int)) {
	budget := time.Duration(c.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for p := 0; p == 0 || (budget > 0 && time.Since(start)+last <= budget) || (budget == 0 && p < c.passes); p++ {
		t := time.Now()
		pass(p)
		last = time.Since(t)
	}
}

// The host this benchmark was built on runs the same code up to a third
// slower for seconds to minutes at a time (its neighbours' load,
// invisible as steal). So the benchmark times a small fixed CPU kernel,
// the host probe, right before every timed window and right after every
// pass, on the goroutine that runs the workload, so the two never share
// a core: it measures the host, not the workload. A campaign-cold pass
// lasts seconds, so its workers also time the kernel between cells; the
// other worker's cell runs on the other core meanwhile, and the kernel
// fits in a core's own cache. End-to-end times are reported normalized to a host
// on which the kernel takes refProbeMs; the clock's own readings stay in
// the artifact beside them. host.ref_ms reports the probe's median over
// the run.
//
// A pass that took wall time T on a host running at speed s takes T × s
// on the reference host, with s = mean(refProbeMs / probe) over the probe
// timings within probeMargin of the pass: the ones just before and after
// it, any between its windows, and for a short pass its neighbours'.
// Timings are at least probeEvery apart, so the probe stays a few percent
// of a run made of short passes.
const (
	refProbeMs  = 0.5 // the kernel's typical duration on the 2-vCPU reference host
	probeMargin = 250 * time.Millisecond
	probeEvery  = 50 * time.Millisecond
	probeRuns   = 3 // kernel runs per probe timing, which is their median
)

// hostProbe holds the probe kernel's timings and when each was taken.
type hostProbe struct {
	k  *probeKernel
	mu sync.Mutex // held while timing; campaign workers tick between cells
	at []time.Time
	ms []float64
}

// tick times the kernel probeRuns times and records the median, unless
// the last timing is less than probeEvery old or another goroutine is
// timing it now.
func (p *hostProbe) tick() {
	if !p.mu.TryLock() {
		return
	}
	defer p.mu.Unlock()
	if n := len(p.at); n > 0 && time.Since(p.at[n-1]) < probeEvery {
		return
	}
	var runs [probeRuns]float64
	for i := range runs {
		runs[i] = p.k.time()
	}
	p.at = append(p.at, time.Now())
	p.ms = append(p.ms, median(runs[:]))
}

// factor returns mean(refProbeMs / probe) over the timings within
// probeMargin of a window, or over the whole run if none are.
func (p *hostProbe) factor(w window) float64 {
	from, to := w.from.Add(-probeMargin), w.to.Add(probeMargin)
	var sum, all float64
	n := 0
	for i, at := range p.at {
		f := refProbeMs / p.ms[i]
		all += f
		if !at.Before(from) && !at.After(to) {
			sum += f
			n++
		}
	}
	if n == 0 {
		return all / float64(len(p.ms))
	}
	return sum / float64(n)
}

// probeKernel sorts, maps and hashes a fixed pseudo-random array: work
// of the same mix as the simulator (branches, memory, arithmetic) whose
// amount never changes. Its buffers are allocated once.
type probeKernel struct {
	xs    []uint64
	index map[uint64]int
	buf   []byte
	sum   [32]byte
}

const probeN = 1 << 12

func newProbeKernel() *probeKernel {
	return &probeKernel{
		xs: make([]uint64, probeN), index: make(map[uint64]int, probeN), buf: make([]byte, 8*probeN),
	}
}

// time runs the kernel once and returns its duration in ms.
func (k *probeKernel) time() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := range k.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.xs[i] = x
	}
	clear(k.index)
	for i, v := range k.xs {
		k.index[v>>16] = i
	}
	slices.Sort(k.xs)
	for i, v := range k.xs {
		binary.LittleEndian.PutUint64(k.buf[8*i:], v+uint64(k.index[v>>16]))
	}
	k.sum = sha256.Sum256(k.buf)
	return float64(time.Since(t)) / 1e6
}

// memDelta reads the allocation and GC counters around a timed window.
type memDelta struct{ before, after runtime.MemStats }

func (d *memDelta) start() { runtime.ReadMemStats(&d.before) }
func (d *memDelta) stop()  { runtime.ReadMemStats(&d.after) }

func (d *memDelta) mallocs() float64 { return float64(d.after.Mallocs - d.before.Mallocs) }
func (d *memDelta) gcs() float64     { return float64(d.after.NumGC - d.before.NumGC) }
func (d *memDelta) pauseMs() float64 {
	return float64(d.after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}

// liveHeap returns the live heap after two full collections: objects in
// a sync.Pool survive the first.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
