package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTinyWorkloadsEmitEveryMetric runs each workload at test size, timed
// and traced, and checks both result lines carry every metric
// BENCHMARK.json names, with its unit, and that the output checks pass.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloadNames))
	}
	// Metrics each workload must measure as nonzero: its own layers.
	exercised := map[string][]string{
		"campaign-cold": {"campaign.cell_ms.p50", "cache.put_us.p50", "codec.decode_us.p50", "cpu.sim.share", "campaign.scenario.udp.cell_s"},
		"campaign-warm": {"cache.fill_s", "cache.get_us.p50", "cache.hit_ratio", "campaign.tail_s", "cpu.campaign.share"},
		"udp-flood":     {"sim.events_per_pkt", "mac.busy_frac", "mactid.codel_drops", "fqcodel.overlimit_drops", "scheme.dtt.ns_per_op"},
		"tcp-download":  {"tcp.retx_ratio", "alloc.tcp.per_op", "cpu.tcp.ns_per_op", "mac.mpdus_per_aggr", "pkt.pool_reuse_ratio"},
	}
	for _, name := range workloadNames {
		if !sp.hasWorkload(name) {
			t.Errorf("BENCHMARK.json lacks workload %s", name)
			continue
		}
		c := config{workload: name, seed: 7, passes: 2, tiny: true, work: t.TempDir()}
		timed, err := measure(c)
		if err != nil {
			t.Fatalf("%s timed: %v", name, err)
		}
		c.traced, c.seconds, c.work = true, 0.6, t.TempDir()
		traced, err := measure(c)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		r, err := assemble(sp, timed, traced, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Failed > 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, r.Failed, r.Attempted, r.Errors)
		}
		for _, metric := range exercised[name] {
			if raceOn && strings.HasPrefix(metric, "cpu.") {
				continue
			}
			if r.PerLayer[metric] == 0 {
				t.Errorf("%s measured %s as 0", name, metric)
			}
		}
		for _, tracedLine := range []bool{false, true} {
			raw, err := r.resultLine(sp, tracedLine)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := sp.EndToEnd
			if tracedLine {
				want = sp.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", name, tracedLine, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", name, tracedLine, m.Name, got, m.Unit)
				}
				if !tracedLine && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestVetClean runs the standard vet analyzers over the benchmark, and
// the repository's static-invariant gate (cmd/hj17vet, whose analyzers
// cover repro/internal/...) through `go vet -vettool`, as CI runs it.
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vet tool")
	}
	tool := filepath.Join(t.TempDir(), "hj17vet")
	for _, args := range [][]string{
		{"vet", "."},
		{"build", "-o", tool, "repro/cmd/hj17vet"},
		{"vet", "-vettool=" + tool, "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
