// Command bench is the repository's benchmark. It measures four
// workloads — the default campaign cold and warm, and the paper's testbed
// under downstream UDP and TCP load — each in a child process of its own,
// first timed with tracing off, then once more traced for a per-layer
// breakdown. BENCHMARK.json names the metrics; README.md explains them.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh                        # every workload; report + .bench_build/bench.json
//	bash bench/run.sh -workload udp-flood -seed 7 -seconds 20 -trace 0
//	bash bench/run.sh -compare a.json b.json # exit 1 if b is worse than a beyond a bound
//
// With -workload, the last line of standard output is one JSON object:
// correct, attempted, failed, and the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// specPath is the benchmark's definition — workloads, metric names,
// units and bounds — relative to the repository root the benchmark runs
// from.
const specPath = "BENCHMARK.json"

// tracedSeconds is the wall time a traced child's passes cover (at least
// one pass): enough CPU samples for a per-layer split.
const tracedSeconds = 3

// defaultPasses are the pass counts of a run without -seconds.
var defaultPasses = map[string]int{
	"campaign-cold": 5, "campaign-warm": 100, "udp-flood": 7, "tcp-download": 7,
}

func main() {
	workload := flag.String("workload", "", "measure one workload and print its result line (default: all, full report)")
	seed := flag.Uint64("seed", 42, "input seed: the campaign's base seed; testbed worlds use seed+pass")
	seconds := flag.Float64("seconds", 0, "wall seconds of timed passes per workload (0: the workload's default pass count)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "bench.json"), "artifact path of a full run")
	compareMode := flag.Bool("compare", false, "compare two artifacts: bench -compare a.json b.json")
	campaignOut := flag.String("campaign-out", "", "write campaign-cold's first campaign artifact to this path")
	work := flag.String("work", ".bench_build", "directory for scratch files")
	child := flag.Bool("child", false, "measure in this process and print the raw measurement (used by the parent)")
	flag.Parse()

	c := config{workload: *workload, seed: *seed, seconds: *seconds,
		traced: *trace == 1, work: *work, campaignOut: *campaignOut}
	code, err := 0, error(nil)
	switch {
	case *child:
		err = runAsChild(c)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	case *compareMode && flag.NArg() != 2:
		err = fmt.Errorf("-compare needs two artifacts: bench -compare a.json b.json")
	default:
		var sp *spec
		if sp, err = loadSpec(specPath); err != nil {
			break
		}
		if *compareMode {
			code, err = runCompare(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		} else {
			code, err = runAsParent(sp, c, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}

// runAsChild measures one workload in this process and prints the raw
// measurement for the parent.
func runAsChild(c config) error {
	dir, err := os.MkdirTemp(c.work, c.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.work, c.passes = dir, defaultPasses[c.workload]
	m, err := measure(c)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(m)
}

// runAsParent measures c.workload, printing its result line, or with no
// workload named, every workload, printing the report and writing the
// artifact to out. The exit code is 1 if an output check failed.
func runAsParent(sp *spec, c config, out string) (int, error) {
	names := workloadNames
	if c.workload != "" {
		names = []string{c.workload}
	}
	for _, name := range names {
		if !sp.hasWorkload(name) {
			return 0, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
		}
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return 0, err
	}
	scratch, err := os.MkdirTemp(c.work, "run-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)

	run := func(name string, traced bool) (*report, error) {
		wc := c
		wc.workload, wc.work = name, scratch
		if name != "campaign-cold" {
			wc.campaignOut = ""
		}
		r, err := runWorkload(sp, wc, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return r, nil
	}
	if c.workload != "" {
		r, err := run(c.workload, c.traced)
		if err != nil {
			return 0, err
		}
		r.print(os.Stderr, sp)
		line, err := r.resultLine(sp, c.traced)
		if err != nil {
			return 0, err
		}
		fmt.Printf("%s\n", line)
		return exitCode(r.Failed), nil
	}
	var reports []*report
	failed := 0
	for _, name := range names {
		r, err := run(name, true)
		if err != nil {
			return 0, err
		}
		r.print(os.Stdout, sp)
		failed += r.Failed
		reports = append(reports, r)
	}
	if err := writeJSON(out, artifact{Host: hostFacts(), Seed: c.seed, Workloads: reports}); err != nil {
		return 0, err
	}
	fmt.Printf("wrote %s\n", out)
	return exitCode(failed), nil
}

// exitCode is 1 when output checks failed, 0 otherwise.
func exitCode(failed int) int {
	if failed > 0 {
		return 1
	}
	return 0
}

// runWorkload measures one workload in child processes: a timed child,
// then, if traced, a traced one.
func runWorkload(sp *spec, c config, traced bool) (*report, error) {
	c.traced = false
	timed, rss, err := runChild(c)
	if err != nil {
		return nil, err
	}
	var tr *measurement
	if traced {
		tc := c
		tc.traced, tc.seconds, tc.campaignOut = true, tracedSeconds, ""
		if tr, _, err = runChild(tc); err != nil {
			return nil, err
		}
	}
	return assemble(sp, timed, tr, rss)
}

// runChild re-executes this binary to measure c in a fresh process, and
// returns the measurement and the child's peak resident set in MB.
func runChild(c config) (*measurement, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if c.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", c.workload,
		"-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds), "-trace", trace, "-work", c.work,
		"-campaign-out", c.campaignOut)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	dieWithParent(cmd)
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	var m measurement
	if err := json.Unmarshal(stdout.Bytes(), &m); err != nil {
		return nil, 0, fmt.Errorf("child output: %w", err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &m, rss, nil
}

// summary is one end-to-end metric of one workload: its per-pass
// samples and their quartiles, and for a host-normalized time the same
// passes as the clock read them.
type summary struct {
	Unit       string    `json:"unit"`
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	Samples    []float64 `json:"samples"`
	RawMedian  float64   `json:"raw_median,omitempty"`
	RawSamples []float64 `json:"raw_samples,omitempty"`
}

func summarize(unit string, xs, raw []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, Samples: xs,
		RawMedian: median(raw), RawSamples: raw}
}

// report is one workload's entry in the artifact.
type report struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// assemble builds a workload's report from its timed measurement, its
// traced one (nil if not traced) and the timed child's peak RSS.
func assemble(sp *spec, timed, tr *measurement, rssMB float64) (*report, error) {
	r := &report{
		Name: timed.Workload, Attempted: timed.Attempted, Failed: timed.Failed,
		Errors: timed.Errors, EndToEnd: make(map[string]summary),
	}
	for _, e := range sp.EndToEnd {
		xs, ok := timed.Samples[e.Name]
		if !ok || len(xs) == 0 {
			return nil, fmt.Errorf("%s measured no %s", r.Name, e.Name)
		}
		r.EndToEnd[e.Name] = summarize(e.Unit, xs, timed.Raw[e.Name])
	}
	if tr != nil {
		r.Attempted += tr.Attempted
		r.Failed += tr.Failed
		r.Errors = append(r.Errors, tr.Errors...)
		if tr.Digest != timed.Digest {
			r.Failed += tr.Attempted
			r.Errors = append(r.Errors, fmt.Sprintf("traced pass 0 differs from timed pass 0: %s vs %s",
				tr.Digest, timed.Digest))
		}
		r.PerLayer = make(map[string]float64)
		for _, src := range []map[string]float64{tr.Layer, timed.Layer} {
			for name, v := range src {
				r.PerLayer[name] = v
			}
		}
		r.PerLayer["mem.max_rss_mb"] = rssMB
		r.PerLayer["trace.overhead_ratio"] = ratio(median(tr.Samples["wall_s"]), median(timed.Samples["wall_s"]))
		known := make(map[string]bool)
		for _, l := range sp.PerLayer {
			known[l.Name] = true
			if _, ok := r.PerLayer[l.Name]; !ok {
				r.PerLayer[l.Name] = 0 // a layer this workload does not exercise
			}
		}
		for name := range r.PerLayer {
			if !known[name] {
				return nil, fmt.Errorf("%s measured %s, which BENCHMARK.json does not name", r.Name, name)
			}
		}
	}
	r.FailRatio = ratio(float64(r.Failed), float64(r.Attempted))
	return r, nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a -workload run.
func (r *report) resultLine(sp *spec, traced bool) ([]byte, error) {
	metrics := make(map[string]metricValue)
	if traced {
		for _, l := range sp.PerLayer {
			metrics[l.Name] = metricValue{r.PerLayer[l.Name], l.Unit}
		}
	} else {
		for _, e := range sp.EndToEnd {
			metrics[e.Name] = metricValue{r.EndToEnd[e.Name].Median, e.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
}

// print writes the report as text: every metric by name with its unit.
func (r *report) print(w io.Writer, sp *spec) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", r.Name, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, e := range sp.EndToEnd {
		s := r.EndToEnd[e.Name]
		raw := ""
		if s.RawSamples != nil {
			raw = fmt.Sprintf(", raw %.6g", s.RawMedian)
		}
		fmt.Fprintf(w, "   %-28s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d%s)\n",
			e.Name, s.Median, e.Unit, s.Q1, s.Q3, len(s.Samples), raw)
	}
	if r.PerLayer == nil {
		return
	}
	for _, l := range sp.PerLayer {
		fmt.Fprintf(w, "   %-40s %14.6g %s\n", l.Name, r.PerLayer[l.Name], l.Unit)
	}
}

// artifact is the JSON document a full run writes.
type artifact struct {
	Host      host      `json:"host"`
	Seed      uint64    `json:"seed"`
	Workloads []*report `json:"workloads"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// floors are absolute changes a metric may make whatever its relative
// bound: set-up may grow by 5 ms, and a workload that allocates almost
// nothing per op by 0.002 allocations.
var floors = map[string]float64{"setup_s": 0.005, "allocs_per_op": 0.002}

// runCompare prints a row per workload and end-to-end metric of two
// artifacts — each side's median and quartiles, the change, the change
// of the clock's own readings where the metric is host-normalized, and
// the bound — and returns exit code 1 if b is worse than a beyond any
// bound or has failures.
func runCompare(w io.Writer, sp *spec, pathA, pathB string) (int, error) {
	var a, b artifact
	for _, x := range []struct {
		path string
		art  *artifact
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err == nil {
			err = json.Unmarshal(raw, x.art)
		}
		if err != nil {
			return 0, err
		}
	}
	if compare(w, sp, &a, &b) > 0 {
		return 1, nil
	}
	return 0, nil
}

// compare writes the comparison table and returns the violation count.
func compare(w io.Writer, sp *spec, a, b *artifact) int {
	byName := func(art *artifact) map[string]*report {
		out := make(map[string]*report)
		for _, r := range art.Workloads {
			out[r.Name] = r
		}
		return out
	}
	ra, rb := byName(a), byName(b)
	names := make([]string, 0, len(ra))
	for name := range ra {
		names = append(names, name)
	}
	sort.Strings(names)
	violations := 0
	fmt.Fprintf(w, "%-14s %-14s %-6s %30s %30s %9s %9s %7s\n",
		"workload", "metric", "unit", "a median [q1, q3]", "b median [q1, q3]", "delta", "raw delta", "bound")
	for _, name := range names {
		x, y := ra[name], rb[name]
		if y == nil {
			fmt.Fprintf(w, "%-14s missing from b  VIOLATION\n", name)
			violations++
			continue
		}
		if y.Failed > 0 {
			fmt.Fprintf(w, "%-14s b failed %d of %d  VIOLATION\n", name, y.Failed, y.Attempted)
			violations++
		}
		for _, e := range sp.EndToEnd {
			sa, sb := x.EndToEnd[e.Name], y.EndToEnd[e.Name]
			delta := ratio(sb.Median-sa.Median, sa.Median)
			worse := sb.Median - sa.Median
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > e.Bound*sa.Median && worse > floors[e.Name] {
				verdict = "  VIOLATION"
				violations++
			}
			raw := "-"
			if sa.RawMedian > 0 && sb.RawMedian > 0 {
				raw = fmt.Sprintf("%+.2f%%", 100*ratio(sb.RawMedian-sa.RawMedian, sa.RawMedian))
			}
			fmt.Fprintf(w, "%-14s %-14s %-6s %30s %30s %+8.2f%% %9s %6.1f%%%s\n", name, e.Name, e.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Median, sb.Q1, sb.Q3),
				100*delta, raw, 100*e.Bound, verdict)
		}
	}
	return violations
}
