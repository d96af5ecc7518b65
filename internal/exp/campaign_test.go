package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// TestRegistryComplete: every paper experiment is registered.
func TestRegistryComplete(t *testing.T) {
	r := NewRegistry()
	want := []string{"latency", "udp", "fairness", "throughput", "sparse",
		"scale", "voip", "web", "weighted-udp", "table1", "mixed", "dense"}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("scenarios = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("scenario[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, sc := range r.Scenarios() {
		if sc.Desc == "" {
			t.Errorf("scenario %q has no description", sc.Name)
		}
	}
}

// TestCampaignDeterministicAcrossWorkers is the acceptance check for the
// engine on real simulations: a multi-scheme sweep's aggregated JSON
// artifact is byte-identical for 1, 4 and 8 workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	plan := func(workers int) campaign.Plan {
		return campaign.Plan{
			Scenarios: []string{"udp", "fairness"},
			Overrides: map[string][]string{
				"scheme":    {"FIFO", "Airtime"},
				"rate-mbps": {"20"},
				"traffic":   {"udp"},
			},
			Reps:     3,
			Duration: 2 * sim.Second,
			Warmup:   1 * sim.Second,
			BaseSeed: 11,
			Workers:  workers,
		}
	}
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := NewRegistry().Execute(plan(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Cells) != 4 { // udp×2 schemes + fairness×2 schemes
			t.Fatalf("workers=%d: cells = %d, want 4", workers, len(res.Cells))
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

// TestScenarioParamErrors: bad parameter values surface through the
// engine as errors that name the axis, never as a panic and never as a
// wrongly labelled cell. Each row used to run a different cell than its
// label says, or panic in the simulator.
func TestScenarioParamErrors(t *testing.T) {
	_, err := NewRegistry().Execute(campaign.Plan{
		Scenarios: []string{"udp"},
		Overrides: map[string][]string{"scheme": {"NoSuchScheme"}},
		Reps:      1, Duration: sim.Second, Warmup: sim.Second, Workers: 1,
	})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := ParseScheme("DTT"); err != nil {
		t.Fatalf("DTT not parseable: %v", err)
	}

	for _, tc := range []struct {
		scenario, axis, value string
	}{
		{"throughput", "dir", "bidr"},
		{"voip", "qos", "vo"},
		{"voip", "delay-ms", "0"},
		{"voip", "delay-ms", "-5"},
		{"web", "page", "larg"},
		{"web", "browser", "slwo"},
		{"sparse", "bulk", "tpc"},
		{"sparse", "opt", "of"},
		{"scale", "stations", "2"},
		// Weights outside [1/256, 256] once stalled the weighted
		// scheduler forever: replenishment truncated to zero or
		// overflowed, so the deficit never turned positive.
		{"weighted-udp", "slow-weight", "Inf"},
		{"weighted-udp", "slow-weight", "1e30"},
		{"weighted-udp", "slow-weight", "1e-7"},
		// Numbers that passed Build and then panicked in the simulator:
		// a datagram gap under 1 ns or past sim.Time's range, a wired
		// delay that schedules events past it, and a BSS larger than its
		// identifier window.
		{"udp", "rate-mbps", "Inf"},
		{"udp", "rate-mbps", "1e300"},
		{"udp", "rate-mbps", "1e-300"},
		// A total load over the wired link's rate queues without
		// bound on the wire.
		{"udp", "rate-mbps", "334"},
		{"voip", "delay-ms", "10000000000000"},
		{"scale", "stations", "1048567"},
	} {
		_, err := NewRegistry().Execute(campaign.Plan{
			Scenarios: []string{tc.scenario},
			Overrides: map[string][]string{tc.axis: {tc.value}},
			Reps:      1, Duration: sim.Second, Warmup: sim.Second, Workers: 1,
		})
		switch {
		case err == nil:
			t.Errorf("%s %s=%s accepted", tc.scenario, tc.axis, tc.value)
		case strings.Contains(err.Error(), "panic"):
			t.Errorf("%s %s=%s panicked: %v", tc.scenario, tc.axis, tc.value, err)
		case !strings.Contains(err.Error(), tc.axis):
			t.Errorf("%s %s=%s: error %q does not name the axis", tc.scenario, tc.axis, tc.value, err)
		}
	}
}

// TestNumericAxisBounds: the bounds behind TestScenarioParamErrors' last
// rows sit at the simulator's and the wired link's limits, and dense
// checks its BSS size before building any station list. Dense is tested
// here rather than as a one-override row, whose bss=4 cells would build
// a million-station world.
func TestNumericAxisBounds(t *testing.T) {
	for _, p := range []Params{
		{"scheme": "FIFO", "rate-mbps": "333"},   // 999 Mbps over three stations
		{"scheme": "FIFO", "rate-mbps": "2e-12"}, // a ~190-year gap
	} {
		if _, err := SpecUDP().Build(p); err != nil {
			t.Errorf("udp %v: %v", p, err)
		}
	}
	for _, rate := range []string{"334", "1e7"} { // over the 1 Gbps wired link
		_, err := SpecUDP().Build(Params{"scheme": "FIFO", "rate-mbps": rate})
		if err == nil || !strings.Contains(err.Error(), "rate-mbps") {
			t.Errorf("udp rate-mbps=%s: error %v, want one naming rate-mbps", rate, err)
		}
	}
	if _, err := SpecVoIP().Build(Params{"scheme": "FIFO", "qos": "BE", "delay-ms": "60000"}); err != nil {
		t.Errorf("voip delay-ms=60000: %v", err)
	}
	over := fmt.Sprint(MaxStations + 1)
	_, err := SpecDense().Build(Params{"scheme": "Airtime", "stations": over, "bss": "1"})
	if err == nil || !strings.Contains(err.Error(), "stations") {
		t.Errorf("dense stations=%s bss=1: error %v, want one naming stations", over, err)
	}
}
