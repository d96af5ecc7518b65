package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the repository's modules as the benchmark names them, plus
// "other" for everything no layer claims (the standard library outside
// the runtime, and the benchmark itself).
var layers = []string{
	"campaign", "cache", "codec", "exp", "sim", "mac", "queue", "sched",
	"phy", "pkt", "tcp", "traffic", "stats", "runtime", "other",
}

// allocLayers are the layers allocations are attributed to: every layer
// but the runtime, which allocates on behalf of its caller, so an
// allocation belongs to the deepest repository frame that asked for it.
var allocLayers = []string{
	"campaign", "cache", "codec", "exp", "sim", "mac", "queue", "sched",
	"phy", "pkt", "tcp", "traffic", "stats", "other",
}

// layerOfPackage maps a repository package path to its layer.
var layerOfPackage = map[string]string{
	"repro/internal/campaign":         "campaign",
	"repro/internal/campaign/journal": "campaign",
	"repro/internal/campaign/wire":    "campaign",
	"repro/internal/campaign/cache":   "cache",
	"repro/internal/exp":              "exp",
	"repro/internal/bss":              "exp",
	"repro/internal/emodel":           "exp",
	"repro/internal/monitor":          "exp",
	"repro/internal/sim":              "sim",
	"repro/internal/mac":              "mac",
	"repro/internal/mactid":           "queue",
	"repro/internal/fqcodel":          "queue",
	"repro/internal/qdisc":            "queue",
	"repro/internal/codel":            "queue",
	"repro/internal/sched":            "sched",
	"repro/internal/airtime":          "sched",
	"repro/internal/dtt":              "sched",
	"repro/internal/phy":              "phy",
	"repro/internal/minstrel":         "phy",
	"repro/internal/channel":          "phy",
	"repro/internal/pkt":              "pkt",
	"repro/internal/tcp":              "tcp",
	"repro/internal/traffic":          "traffic",
	"repro/internal/ether":            "traffic",
	"repro/internal/stats":            "stats",
}

// codecFiles hold the binary metrics codec, which lives inside the
// campaign and stats packages but is its own layer.
var codecFiles = []string{"internal/campaign/encode.go", "internal/stats/codec.go"}

// Frames kept when folding a profile: a sample's cost goes to the
// deepest kept frame of its stack, so time in the standard library
// (system calls, map internals, encoding) counts for the repository
// function that called it. CPU profiles keep the runtime package (malloc,
// GC, scheduler, memmove) as a layer of its own.
const (
	cpuShow   = `^(repro/|runtime\.)`
	allocShow = `^repro/`
)

// layerOf names the layer of one pprof node: a function name and, when
// pprof printed one, its source file.
func layerOf(fn, file string) string {
	for _, f := range codecFiles {
		if strings.HasSuffix(file, f) {
			return "codec"
		}
	}
	pkg := packageOf(fn)
	if pkg == "runtime" {
		return "runtime"
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/mac.(*Node).Input" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// topRow is one node of `go tool pprof -top` output.
type topRow struct {
	flat float64
	fn   string
	file string
}

// parseTop reads the node rows of `go tool pprof -top` text: five value
// columns (flat, flat%, sum%, cum, cum%), the symbol, and with -lines the
// file:line it sits at.
func parseTop(text string) ([]topRow, error) {
	var rows []topRow
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := parseValue(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		rest := fields[5:]
		if rest[len(rest)-1] == "(inline)" {
			rest = rest[:len(rest)-1]
		}
		var file string
		if last := rest[len(rest)-1]; len(rest) > 1 && strings.Contains(last, "/") {
			if colon := strings.LastIndex(last, ":"); colon > 0 {
				file, rest = last[:colon], rest[:len(rest)-1]
			}
		}
		rows = append(rows, topRow{flat: flat, fn: strings.Join(rest, " "), file: file})
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no table")
	}
	return rows, nil
}

// parseValue reads one pprof value such as "120000000ns", "1234" or
// "1.5kB", returning it in the unit's base (ns, objects, bytes).
func parseValue(s string) (float64, error) {
	end := len(s)
	for end > 0 && (s[end-1] < '0' || s[end-1] > '9') && s[end-1] != '.' {
		end--
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, err
	}
	switch strings.TrimSuffix(strings.TrimSuffix(s[end:], "B"), "ns") {
	case "":
	case "k":
		v *= 1e3
	case "M":
		v *= 1e6
	case "G":
		v *= 1e9
	default:
		return 0, fmt.Errorf("unknown unit in %q", s)
	}
	return v, nil
}

// rollUp sums flat values by layer. The samples folded (the shown rows)
// can cover less than total — a stack with no kept frame — and the rest
// goes to "other".
func rollUp(shown []topRow, total float64) map[string]float64 {
	out := make(map[string]float64)
	var sum float64
	for _, r := range shown {
		out[layerOf(r.fn, r.file)] += r.flat
		sum += r.flat
	}
	if rest := total - sum; rest > 0 {
		out["other"] += rest
	}
	return out
}

// pprofTop runs `go tool pprof -top` with every node shown.
func pprofTop(args ...string) ([]topRow, error) {
	argv := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, args...)
	cmd := exec.Command("go", argv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v: %s", strings.Join(argv, " "), err, stderr.String())
	}
	return parseTop(string(out))
}

// layerProfile folds one profile by layer: the total of the samples the
// filters keep, and each layer's part of it.
func layerProfile(filters []string, show, file string) (map[string]float64, float64, error) {
	all, err := pprofTop(append(filters, file)...)
	if err != nil {
		return nil, 0, err
	}
	var total float64
	for _, r := range all {
		total += r.flat
	}
	shown, err := pprofTop(append(filters, "-lines", "-show="+show, file)...)
	if err != nil {
		return nil, 0, err
	}
	return rollUp(shown, total), total, nil
}

// allocProfileRate is the heap-profile sampling interval in bytes inside
// traced run windows: each sample costs a stack walk, and at this rate
// the walks stay near 1% of run time even on the allocation-heavy
// workloads, so they barely disturb the CPU profile taken alongside.
// Outside run windows the rate is 0, so set-up allocations go unsampled.
const allocProfileRate = 64 << 10

// profiler records a traced run: a CPU profile with samples labelled by
// phase, and allocation profiles taken before and after the traced
// passes. A nil profiler (a timed run) does nothing.
type profiler struct {
	dir string
	cpu *os.File
}

// startProfiler starts the CPU profile and takes the first allocation
// profile.
func startProfiler(dir string) (*profiler, error) {
	runtime.MemProfileRate = 0
	f, err := os.Create(filepath.Join(dir, "cpu.pb.gz"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := &profiler{dir: dir, cpu: f}
	if err := p.heapSnapshot("heap0.pb.gz"); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// sampleAllocs switches allocation sampling on at the start of a run
// window and off at its end.
func (p *profiler) sampleAllocs(on bool) {
	if p == nil {
		return
	}
	runtime.MemProfileRate = 0
	if on {
		runtime.MemProfileRate = allocProfileRate
	}
}

// heapSnapshot writes the cumulative allocation profile to name, after a
// collection so it is current. The sampling rate is set while writing
// because pprof scales samples by the rate in force then.
func (p *profiler) heapSnapshot(name string) error {
	runtime.GC()
	f, err := os.Create(filepath.Join(p.dir, name))
	if err != nil {
		return err
	}
	runtime.MemProfileRate = allocProfileRate
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	runtime.MemProfileRate = 0
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stop ends the CPU profile and takes the last allocation profile.
func (p *profiler) stop() error {
	err := p.heapSnapshot("heap1.pb.gz")
	pprof.StopCPUProfile()
	if cerr := p.cpu.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerMetrics stops the profiler and folds its profiles into per-layer
// metrics: each layer's share of the CPU samples labelled phase=run or
// phase=engine, its CPU nanoseconds per op, and its part of the run
// windows' allocations per op (the profile's split applied to the exact
// count). The runtime's background GC workers carry no labels, so their
// time is outside the split; gc.* reports it.
func (p *profiler) layerMetrics(layer map[string]float64, ops, allocsPerOp float64) error {
	if err := p.stop(); err != nil {
		return err
	}
	cpu, total, err := layerProfile([]string{"-unit=ns", "-tagfocus=phase=^(run|engine)$"},
		cpuShow, filepath.Join(p.dir, "cpu.pb.gz"))
	if err != nil {
		return err
	}
	for _, l := range layers {
		layer["cpu."+l+".share"] = ratio(cpu[l], total)
		layer["cpu."+l+".ns_per_op"] = ratio(cpu[l], ops)
	}
	alloc, total, err := layerProfile([]string{"-sample_index=alloc_objects",
		"-diff_base=" + filepath.Join(p.dir, "heap0.pb.gz")},
		allocShow, filepath.Join(p.dir, "heap1.pb.gz"))
	if err != nil {
		return err
	}
	for _, l := range allocLayers {
		layer["alloc."+l+".per_op"] = allocsPerOp * ratio(alloc[l], total)
	}
	return nil
}

// inPhase runs f with its CPU samples labelled phase=name (plus any
// extra label pairs) when labels is set, and plainly otherwise, so
// timed runs carry no profiling code.
func inPhase(labels bool, name string, f func(), extra ...string) {
	if !labels {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(append([]string{"phase", name}, extra...)...),
		func(context.Context) { f() })
}
