// Command bench measures the simulator's per-packet cost — wall-clock
// nanoseconds, heap allocations and bytes per simulated packet — for each
// transmit-path scheme, plus a station-count scaling sweep over dense
// multi-BSS worlds, and writes the results as a JSON artifact
// (BENCH_7.json; BENCH_6.json is the previous generation, kept as the
// regression baseline). It is the repo's performance trajectory: CI runs
// it in quick mode on every push, diffs the scheme section against the
// committed BENCH_6.json, gates every scheduled scheme within 1.2× of
// FIFO's ns/pkt, gates the scaling sweep on flatness (1000 stations
// within 1.3× of the 30-station ns/pkt), and the committed artifact
// records the measurement the README's perf tables are built from.
//
// Usage:
//
//	go run ./cmd/bench            # full measurement, writes BENCH_7.json
//	go run ./cmd/bench -quick     # short CI mode
//	go run ./cmd/bench -schemes Airtime,FIFO -dur 5 -out bench.json
//	go run ./cmd/bench -scaling=false      # skip the scaling sweep
//	go run ./cmd/bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The profile flags capture pprof evidence over the whole measurement
// run; see README's performance section for the analysis workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// preRefactorBaseline is the measurement taken at the commit before the
// allocation-free-hot-path refactor (PR 3), on the same workload
// exp.BenchWorld drives (3-station UDP@50Mbps + ping, Airtime scheme,
// 3 s simulated): 235157 allocs and 14384696 heap bytes over 37543
// MAC-input packets. It is the denominator for the reduction figures.
var preRefactorBaseline = Baseline{
	Scheme:       "Airtime",
	AllocsPerPkt: 6.263,
	BytesPerPkt:  383.2,
	NsPerPkt:     881.7,
	Note:         "pre-refactor (commit 3993ad8), same workload, 3 s simulated",
}

// Baseline is a recorded reference measurement.
type Baseline struct {
	Scheme       string  `json:"scheme"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	BytesPerPkt  float64 `json:"bytes_per_pkt"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	Note         string  `json:"note"`
}

// SchemeResult is one scheme's measurement.
type SchemeResult struct {
	Scheme string `json:"scheme"`

	NsPerPkt     float64 `json:"ns_per_pkt"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	BytesPerPkt  float64 `json:"bytes_per_pkt"`
	EventsPerPkt float64 `json:"events_per_pkt"`

	PacketsPerOp int64 `json:"packets_per_op"`
	EventsPerOp  int64 `json:"events_per_op"`
	NsPerOp      int64 `json:"ns_per_op"`
	AllocsPerOp  int64 `json:"allocs_per_op"`
	BytesPerOp   int64 `json:"bytes_per_op"`

	// Pool effectiveness: fraction of packet requests served from the
	// free list, and packets still live at the end of the run.
	PoolReusePct float64 `json:"pool_reuse_pct"`
	LivePackets  int64   `json:"live_packets"`

	// Reduction of allocs per packet against the recorded pre-refactor
	// baseline (only meaningful on the baseline's scheme, reported for
	// all).
	AllocReductionPct float64 `json:"alloc_reduction_vs_baseline_pct"`
}

// ScalingResult is one point of the dense-world station-count sweep.
type ScalingResult struct {
	Stations int `json:"stations"`
	BSSs     int `json:"bss"`

	NsPerPkt     float64 `json:"ns_per_pkt"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	BytesPerPkt  float64 `json:"bytes_per_pkt"`
	EventsPerPkt float64 `json:"events_per_pkt"`
	PacketsPerOp int64   `json:"packets_per_op"`

	// NsRatioVsFirst is this point's ns/pkt divided by the sweep's first
	// (smallest-population) point — the flat-scaling figure CI gates on.
	NsRatioVsFirst float64 `json:"ns_per_pkt_ratio_vs_first"`
}

// Artifact is the BENCH_7.json document.
type Artifact struct {
	Bench    string          `json:"bench"`
	Quick    bool            `json:"quick"`
	Config   Config          `json:"config"`
	Baseline Baseline        `json:"baseline"`
	Schemes  []SchemeResult  `json:"schemes"`
	Scaling  []ScalingResult `json:"scaling"`
}

// Config records the workload parameters of the run.
type Config struct {
	Stations  int     `json:"stations"`
	RateMbps  float64 `json:"rate_mbps"`
	SimulateS float64 `json:"simulated_seconds"`
	TCP       bool    `json:"tcp"`
}

func main() {
	quick := flag.Bool("quick", false,
		"short CI mode (2 s simulated per iteration: past the 1 s pool prewarm, so the reuse floor can fail)")
	out := flag.String("out", "BENCH_7.json", "output artifact path (\"-\" for stdout)")
	durS := flag.Float64("dur", 3, "simulated seconds per iteration")
	scaling := flag.Bool("scaling", true, "run the station-count scaling sweep")
	reuseFloor := flag.Float64("reuse-floor", 90,
		"fail when any scheme's pool_reuse_pct falls below this (0 disables)")
	schemesCSV := flag.String("schemes", "FIFO,FQ-CoDel,FQ-MAC,Airtime,DTT",
		"comma-separated scheme names to measure")
	withTCP := flag.Bool("tcp", false, "add bulk TCP downloads to the workload")
	best := flag.Int("best", 3, "measurement attempts per point, keeping the fastest (noise floor)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering every measured scheme")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken after the run")
	flag.Parse()

	if *quick {
		// Not 1 s: the world's packet pool is prewarmed for its first
		// second of traffic, so a 1 s world reads ~99.9% reuse even when
		// Put leaks every packet, and -reuse-floor could never fail.
		*durS = 2
		*best = 1
	}
	// Open both profile sinks before measuring, so a bad path fails in
	// milliseconds instead of discarding minutes of measurement.
	var memFile *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		memFile = f
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	dur := sim.Time(*durS * float64(sim.Second))

	art := Artifact{
		Bench:    "cmd/bench",
		Quick:    *quick,
		Config:   Config{Stations: 3, RateMbps: 50, SimulateS: *durS, TCP: *withTCP},
		Baseline: preRefactorBaseline,
	}

	for _, name := range strings.Split(*schemesCSV, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		scheme, err := exp.ParseScheme(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res, last := measure(*best, func() (testing.BenchmarkResult, exp.BenchCounters) {
			var c exp.BenchCounters
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// Assemble the world and collect the previous
					// iteration's garbage outside the timed window, so
					// each measurement starts from the same GC state and
					// per-scheme figures don't depend on what was
					// measured earlier in the process.
					b.StopTimer()
					bw := exp.NewBenchWorld(exp.BenchWorldConfig{
						Scheme: scheme, Seed: uint64(i) + 1,
						Duration: dur, TCP: *withTCP,
					})
					runtime.GC()
					b.StartTimer()
					c = bw.Run()
				}
			})
			return r, c
		})
		pkts := float64(last.Packets)
		sr := SchemeResult{
			Scheme:       name,
			NsPerPkt:     round3(float64(res.NsPerOp()) / pkts),
			AllocsPerPkt: round3(float64(res.AllocsPerOp()) / pkts),
			BytesPerPkt:  round3(float64(res.AllocedBytesPerOp()) / pkts),
			EventsPerPkt: round3(float64(last.Events) / pkts),
			PacketsPerOp: last.Packets,
			EventsPerOp:  int64(last.Events),
			NsPerOp:      res.NsPerOp(),
			AllocsPerOp:  res.AllocsPerOp(),
			BytesPerOp:   res.AllocedBytesPerOp(),
			LivePackets:  last.LivePackets,
		}
		if last.PoolGets > 0 {
			sr.PoolReusePct = round3(100 * float64(last.PoolGets-last.PoolNews) / float64(last.PoolGets))
		}
		if preRefactorBaseline.AllocsPerPkt > 0 {
			sr.AllocReductionPct = round3(100 * (1 - sr.AllocsPerPkt/preRefactorBaseline.AllocsPerPkt))
		}
		art.Schemes = append(art.Schemes, sr)
		fmt.Fprintf(os.Stderr, "%-10s %8.1f ns/pkt %7.3f allocs/pkt %8.1f B/pkt  (pool reuse %.1f%%, alloc reduction %.1f%%)\n",
			name, sr.NsPerPkt, sr.AllocsPerPkt, sr.BytesPerPkt, sr.PoolReusePct, sr.AllocReductionPct)
	}

	// Pool-reuse floor: the pre-warmed pool should serve nearly every
	// packet request from the free list on every scheme, not just FIFO.
	failed := false
	for _, sr := range art.Schemes {
		if *reuseFloor > 0 && sr.PoolReusePct < *reuseFloor {
			fmt.Fprintf(os.Stderr, "bench: FAIL %s pool reuse %.1f%% below floor %.1f%%\n",
				sr.Scheme, sr.PoolReusePct, *reuseFloor)
			failed = true
		}
	}

	// Station-count scaling sweep: dense multi-BSS worlds under the
	// occupancy-fixed workload, Airtime scheme (the heaviest scheduled
	// path). The headline is the ratio column: ns/pkt at 1000 stations
	// within 1.3× of the 30-station figure.
	scalePoints := []struct{ stations, bsss int }{
		{30, 1}, {120, 4}, {480, 8}, {1000, 8}, {1000, 16},
	}
	if !*scaling {
		scalePoints = nil
	}
	airtime, err := exp.ParseScheme("Airtime")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, pt := range scalePoints {
		res, last := measure(*best, func() (testing.BenchmarkResult, exp.BenchCounters) {
			var c exp.BenchCounters
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// World assembly is one-time O(stations); pause the
					// clock so the point measures the steady-state hot
					// path, and collect the previous iteration's world
					// while the clock is stopped so its garbage doesn't
					// trigger GC inside the measured window.
					b.StopTimer()
					bw := exp.NewDenseBenchWorld(exp.DenseBenchConfig{
						Scheme: airtime, Seed: uint64(i) + 1,
						Duration: dur, Stations: pt.stations, BSSs: pt.bsss,
					})
					runtime.GC()
					b.StartTimer()
					c = bw.Run()
				}
			})
			return r, c
		})
		pkts := float64(last.Packets)
		sr := ScalingResult{
			Stations:     pt.stations,
			BSSs:         pt.bsss,
			NsPerPkt:     round3(float64(res.NsPerOp()) / pkts),
			AllocsPerPkt: round3(float64(res.AllocsPerOp()) / pkts),
			BytesPerPkt:  round3(float64(res.AllocedBytesPerOp()) / pkts),
			EventsPerPkt: round3(float64(last.Events) / pkts),
			PacketsPerOp: last.Packets,
		}
		if len(art.Scaling) == 0 {
			sr.NsRatioVsFirst = 1
		} else if first := art.Scaling[0].NsPerPkt; first > 0 {
			sr.NsRatioVsFirst = round3(sr.NsPerPkt / first)
		}
		art.Scaling = append(art.Scaling, sr)
		fmt.Fprintf(os.Stderr, "scale %4d sta / %2d BSS %8.1f ns/pkt %7.3f allocs/pkt  (%.2fx vs first)\n",
			pt.stations, pt.bsss, sr.NsPerPkt, sr.AllocsPerPkt, sr.NsRatioVsFirst)
	}

	if memFile != nil {
		runtime.GC() // settle live objects so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		memFile.Close()
	}

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs bench up to attempts times and keeps the fastest result —
// the estimate least polluted by scheduling noise on shared hardware.
func measure(attempts int, bench func() (testing.BenchmarkResult, exp.BenchCounters)) (testing.BenchmarkResult, exp.BenchCounters) {
	res, counters := bench()
	for i := 1; i < attempts; i++ {
		r, c := bench()
		if r.NsPerOp() < res.NsPerOp() {
			res, counters = r, c
		}
	}
	return res, counters
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
