package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// The hashes below were captured from the pre-Spec bespoke runners (one
// hand-wired Run function per scenario) on the identical plans. They pin
// the API redesign's acceptance criterion: every paper experiment,
// rewritten as a declarative Spec through the generic runner, must
// produce campaign artifacts byte-identical to the bespoke
// implementations — same seeds, same attachment order, same metric
// names in the same order, down to the JSON bytes. The plans cover the
// non-default variants too (bidirectional traffic, the slow-station
// browser, weighted stations). If a deliberate behaviour change ever
// invalidates them, regenerate with the plans below and document why.
//
// Regenerated: "table1", when the Table 1 probe began emitting the full
// row (aggr-, model-share- and base-mbps- per station, each inserted
// before model-mbps-). Every metric the old artifact held keeps its
// value and order.
var specGoldenArtifacts = map[string]string{
	"latency":      "8b8ab31c356efa050489d2130dcc5ba91fdc49f1bcc6481b46198218e8abe791",
	"udp":          "776fd03c147a994fb5c022bde53f8fb78ef55e64d50aa8090edf2f5136070f84",
	"fairness":     "1bad22ee926bf790a1cc13e1b01e45f1aff3deff801df58574b6ababec602bc6",
	"throughput":   "5099271a940f712e17f9418b22b6f4aadf4e491641456f1b5206389da1397b32",
	"sparse":       "e09364d03f1c366ad2af0c33884ec41d448cf0b32b02e97b841ee1c1482927b5",
	"scale":        "dccbeefee146f33c453c79ab0a249972c6b632c14c193c2b4d3a8cbb061e14b3",
	"voip":         "3ca6122aa6016f06679d3fea3292ee234c5b8f8c005fd3f78d3e6f9c5e909202",
	"web":          "9d60c76828e76039beba0a9cb2175e859790b1d5f679134cb2c09437a962b3a3",
	"weighted-udp": "5db0c926054d1d811a6afb770d7143565bdef13cae96cebaa1c47904529e2445",
	"table1":       "8836e0077b6a16b8d73db506c72b9eaf3ffd10a27ac2a8d99fa12817a36812b6",
}

// specGoldenOverrides widens each scenario's plan beyond its default
// grid so variant code paths are pinned too.
var specGoldenOverrides = map[string]map[string][]string{
	"latency":      {"dir": {"down", "bidir"}},
	"udp":          {"rate-mbps": {"20", "50"}},
	"throughput":   {"dir": {"down", "bidir"}},
	"scale":        {"stations": {"6"}},
	"web":          {"browser": {"fast", "slow"}},
	"weighted-udp": {"slow-weight": {"0.5", "2"}},
}

func specGoldenPlan(scenario string) campaign.Plan {
	return campaign.Plan{
		Scenarios: []string{scenario},
		Overrides: specGoldenOverrides[scenario],
		Reps:      2,
		Duration:  2 * sim.Second,
		Warmup:    1 * sim.Second,
		BaseSeed:  13,
		Workers:   4,
	}
}

func artifactHash(t *testing.T, reg *campaign.Registry, plan campaign.Plan) string {
	t.Helper()
	res, err := reg.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestSpecGoldenAllScenarios: every paper scenario, run as a declarative
// Spec, reproduces the bespoke runners' artifacts byte-for-byte.
func TestSpecGoldenAllScenarios(t *testing.T) {
	for name, want := range specGoldenArtifacts {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := artifactHash(t, NewRegistry(), specGoldenPlan(name)); got != want {
				t.Errorf("artifact hash = %s, want golden %s\n"+
					"the Spec-based runner diverged from the bespoke runner's behaviour", got, want)
			}
		})
	}
}

// TestMixedWorkloadDeterminism: the composite UDP+TCP+VoIP+web scenario
// produces byte-identical artifacts for 1, 4 and 8 workers, and on
// worlds whose packet pools never recycle (unpooledRegistry).
func TestMixedWorkloadDeterminism(t *testing.T) {
	plan := func(workers int) campaign.Plan {
		return campaign.Plan{
			Scenarios: []string{"mixed"},
			Overrides: map[string][]string{"scheme": {"FIFO", "FQ-MAC", "Airtime"}},
			Reps:      2,
			Duration:  2 * sim.Second,
			Warmup:    1 * sim.Second,
			BaseSeed:  21,
			Workers:   workers,
		}
	}
	ref := artifactHash(t, NewRegistry(), plan(1))
	for _, workers := range []int{4, 8} {
		if got := artifactHash(t, NewRegistry(), plan(workers)); got != ref {
			t.Errorf("workers=%d artifact %s differs from workers=1 %s", workers, got, ref)
		}
	}
	if got := artifactHash(t, unpooledRegistry(), plan(4)); got != ref {
		t.Errorf("pooling-off artifact %s differs from pooling-on %s", got, ref)
	}
}

// TestMixedWorkloadMetrics: the composite scenario's probes all observe
// traffic — goodput, a scored call, completed page loads and RTTs.
func TestMixedWorkloadMetrics(t *testing.T) {
	inst, err := SpecMixed().Build(Params{"scheme": "Airtime"})
	if err != nil {
		t.Fatal(err)
	}
	m, rt := inst.Execute(campaign.Ctx{Seed: 4, Duration: 4 * sim.Second, Warmup: 2 * sim.Second})
	if mos, ok := m.Scalar("mos"); !ok || mos < 3 {
		t.Errorf("mos = %v (ok=%v), want a scored VO call", mos, ok)
	}
	if total, ok := m.Scalar("total-mbps"); !ok || total <= 0 {
		t.Errorf("total-mbps = %v (ok=%v)", total, ok)
	}
	if plt := m.Sample("plt-ms"); plt == nil || plt.N() == 0 {
		t.Error("no page loads completed")
	}
	for _, name := range []string{"fast-rtt-ms", "slow-rtt-ms"} {
		if s := m.Sample(name); s == nil || s.N() == 0 {
			t.Errorf("no %s samples", name)
		}
	}
	// The UDP and TCP stations both moved bytes.
	gps := rt.Goodputs()
	if gps[0] <= 0 || gps[3] <= 0 {
		t.Errorf("goodputs = %v, want traffic at fast1 and fast3", gps)
	}
}

// TestRuntimeAttachCollect drives workloads and probes imperatively on a
// live world: attach, warm up, arm, run, collect.
func TestRuntimeAttachCollect(t *testing.T) {
	n := NewNet(NetConfig{Seed: 11, Scheme: mac.SchemeAirtimeFQ, Stations: DefaultStations()})
	rt := NewRuntime(n.World)
	rt.Attach(UDPFlood(40e6))
	rt.Attach(VoIPCall(pkt.ACVO).On(StationsNamed("slow")))
	rt.Attach(Pings().On(StationAt(0)))
	n.Run(1 * sim.Second)
	rt.Arm()
	n.Run(5 * sim.Second)

	m := campaign.NewMetrics()
	for _, p := range []Probe{
		PerStation(ShareCol("share-"), GoodputCol("goodput-mbps-")),
		Jain("jain"),
		MOS("mos"),
		RTTAt(0, "rtt-ms"),
	} {
		p.Collect(m, rt)
	}
	for _, name := range []string{"share-fast1", "share-fast2", "share-slow"} {
		if v, ok := m.Scalar(name); !ok || v <= 0.2 || v >= 0.5 {
			t.Errorf("%s = %v (ok=%v), want ~1/3 under Airtime", name, v, ok)
		}
	}
	if gp, ok := m.Scalar("goodput-mbps-fast1"); !ok || gp <= 1 {
		t.Errorf("goodput-mbps-fast1 = %v (ok=%v)", gp, ok)
	}
	if jain, ok := m.Scalar("jain"); !ok || jain < 0.95 {
		t.Errorf("jain = %v (ok=%v), want near 1", jain, ok)
	}
	if mos, ok := m.Scalar("mos"); !ok || mos < 3 {
		t.Errorf("mos = %v (ok=%v), want a healthy VO call", mos, ok)
	}
	if s := m.Sample("rtt-ms"); s == nil || s.N() == 0 {
		t.Error("no RTT samples collected")
	}
	// Raw window readings through the runtime.
	if gps := rt.Goodputs(); len(gps) != 3 || gps[0] <= 0 {
		t.Errorf("runtime goodputs = %v", gps)
	}
}

// TestDescribeMatchesArtifact: every paper Spec describes its default point
// (stations, workloads, metrics), and the metric names Describe reads
// from its 1 ns run are exactly the scalar then distribution names of
// that point's artifact cell from a real campaign run, in order.
func TestDescribeMatchesArtifact(t *testing.T) {
	for _, s := range PaperSpecs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			d, err := s.Describe()
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Stations) == 0 || len(d.Workloads) == 0 || len(d.Metrics) == 0 {
				t.Errorf("description incomplete: %+v", d)
			}

			reg := campaign.NewRegistry()
			s.Register(reg)
			point := map[string][]string{}
			for name, v := range s.Defaults() {
				point[name] = []string{v}
			}
			res, err := reg.Execute(campaign.Plan{
				Scenarios: []string{s.Name}, Overrides: point,
				Reps: 1, Duration: sim.Second, Warmup: sim.Second / 2, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var cell []string
			for _, m := range res.Cells[0].Metrics {
				cell = append(cell, m.Name)
			}
			for _, m := range res.Cells[0].Dists {
				cell = append(cell, m.Name)
			}
			if !slices.Equal(d.Metrics, cell) {
				t.Errorf("Describe().Metrics = %v\nartifact cell names = %v", d.Metrics, cell)
			}
		})
	}
}

// TestWorkloadTargets: the station selectors resolve as documented.
func TestWorkloadTargets(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	check := func(tg Target, want ...int) {
		t.Helper()
		var got []int
		for i, name := range names {
			if tg.Matches(i, len(names), name) {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s selected %v, want %v", tg.Describe(), got, want)
		}
	}
	check(AllStations(), 0, 1, 2, 3)
	check(FirstStations(2), 0, 1)
	check(StationAt(1, -1), 1, 3)
	check(AllButLast(), 0, 1, 2)
	check(StationsNamed("b", "d"), 1, 3)
}
