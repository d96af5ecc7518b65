package exp

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// identityInstance is a composition exercising airtime, goodput,
// aggregation and latency surfaces at once, used to compare the two
// topology forms.
func identityInstance(cfg NetConfig) *Instance {
	return &Instance{
		Net: cfg,
		Workloads: []*Workload{
			UDPFlood(20e6),
			Pings(),
		},
		Probes: []Probe{
			PerStation(ShareCol("share-"), GoodputCol("goodput-"), AggCol("agg-")),
			Jain("jain"),
			SumRxMbps("total-mbps"),
		},
	}
}

// TestOneBSSWorldIdentity: a world built through the multi-BSS BSSs form
// with a single cell reproduces the legacy Stations form exactly — same
// airtime trajectory, same byte counts, same RTT samples — across all
// five paper schemes. Float equality is exact: the two forms must build
// the very same world.
func TestOneBSSWorldIdentity(t *testing.T) {
	run := campaign.Ctx{Seed: 11, Duration: 2 * sim.Second, Warmup: sim.Second}
	for _, name := range fivePaperSchemes {
		scheme, err := ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		legacy := NetConfig{Scheme: scheme, Stations: FourStations()}
		world := NetConfig{Scheme: scheme, BSSs: []BSSSpec{{Name: "ap", Stations: FourStations()}}}

		_, rtA := identityInstance(legacy).Execute(run)
		_, rtB := identityInstance(world).Execute(run)

		cmp := func(metric string, a, b []float64) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s/%s: lengths %d vs %d", name, metric, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s/%s[%d]: legacy %v, 1-BSS world %v", name, metric, i, a[i], b[i])
				}
			}
		}
		cmp("shares", rtA.Shares(), rtB.Shares())
		cmp("goodputs", rtA.Goodputs(), rtB.Goodputs())
		cmp("airtime", rtA.AirDeltas(), rtB.AirDeltas())
		for i := range rtA.World().Stations {
			var sa, sb stats.Sample
			rtA.RTT(i, &sa)
			rtB.RTT(i, &sb)
			if sa.N() != sb.N() || sa.Mean() != sb.Mean() || sa.Median() != sb.Median() {
				t.Errorf("%s/rtt[%d]: legacy (n=%d mean=%v), 1-BSS world (n=%d mean=%v)",
					name, i, sa.N(), sa.Mean(), sb.N(), sb.Mean())
			}
		}
		// The single-cell world also wires the flattened views coherently.
		w := rtB.World()
		if w.BSSCount() != 1 {
			t.Fatalf("%s: BSSCount = %d, want 1", name, w.BSSCount())
		}
		if lo, hi := w.BSSRange(0); lo != 0 || hi != len(w.Stations) {
			t.Fatalf("%s: BSSRange(0) = [%d,%d), want [0,%d)", name, lo, hi, len(w.Stations))
		}
	}
}

// TestDenseDeterministicAcrossWorkers: the dense multi-BSS scenario's
// aggregated artifact is byte-identical for 1, 4 and 8 workers.
func TestDenseDeterministicAcrossWorkers(t *testing.T) {
	plan := func(workers int) campaign.Plan {
		return campaign.Plan{
			Scenarios: []string{"dense"},
			Overrides: map[string][]string{
				"scheme":   {"Airtime", "FIFO"},
				"stations": {"40"},
				"bss":      {"4"},
			},
			Reps:     2,
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
		if len(res.Cells) != 2 {
			t.Fatalf("workers=%d: cells = %d, want 2", workers, len(res.Cells))
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

// TestDenseProbeColumns: the dense scenario emits one column per BSS of
// the world it runs, stable in name and order, including the RTT
// distributions of BSSs whose pings see no reply: in a 1 ns run, as
// Describe makes, no ping is answered.
func TestDenseProbeColumns(t *testing.T) {
	spec := SpecDense()
	spec.Axes = []campaign.Axis{
		{Name: "scheme", Values: []string{"Airtime"}},
		{Name: "stations", Values: []string{"24"}},
		{Name: "bss", Values: []string{"4"}},
	}
	d, err := spec.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.PerBSS, []int{6, 6, 6, 6}) || len(d.Stations) != 24 {
		t.Fatalf("topology = %v BSS sizes, %d stations; want 4 BSS of 6", d.PerBSS, len(d.Stations))
	}
	want := []string{"total-mbps", "obss-jain"}
	for _, format := range []string{"bss-share-%d", "jain-bss-%d", "rtt-ms-bss-%d"} {
		for b := 0; b < 4; b++ {
			want = append(want, fmt.Sprintf(format, b))
		}
	}
	if !slices.Equal(d.Metrics, want) {
		t.Fatalf("Describe().Metrics = %v, want %v", d.Metrics, want)
	}

	inst, err := spec.Build(spec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	quiet, _ := inst.Execute(campaign.Ctx{Seed: 5, Duration: 1})
	for b := 0; b < 4; b++ {
		if s := quiet.Sample(fmt.Sprintf("rtt-ms-bss-%d", b)); s == nil || s.N() != 0 {
			t.Errorf("1 ns run: rtt-ms-bss-%d = %v, want an empty distribution", b, s)
		}
	}
	m, _ := inst.Execute(campaign.Ctx{Seed: 5, Duration: sim.Second, Warmup: sim.Second / 2})
	if got := m.Names(); !slices.Equal(got, want) {
		t.Errorf("1 s run emitted %v, want %v", got, want)
	}
}

// TestBSSBusyDeltas: the OBSS occupancy split over the measurement
// window covers the whole world and every saturated BSS holds a
// non-trivial share.
func TestBSSBusyDeltas(t *testing.T) {
	inst, err := SpecDense().Build(Params{"scheme": "FIFO", "stations": "16", "bss": "4"})
	if err != nil {
		t.Fatal(err)
	}
	_, rt := inst.Execute(campaign.Ctx{Seed: 3, Duration: 2 * sim.Second, Warmup: sim.Second})
	deltas := rt.BSSBusyDeltas()
	if len(deltas) != 4 {
		t.Fatalf("deltas = %d entries, want 4", len(deltas))
	}
	shares := stats.Shares(deltas)
	for b, s := range shares {
		if s < 0.1 || s > 0.5 {
			t.Errorf("BSS %d busy share = %.3f, want a real slice of the medium", b, s)
		}
	}
}

// TestBuildWorldRejectsBadWeights: library callers reach the weighted
// scheduler through NetConfig.Weights, so BuildWorld panics on a weight
// outside the scheduler's bound, as it does on an unknown station name.
func TestBuildWorldRejectsBadWeights(t *testing.T) {
	build := func(w float64) {
		BuildWorld(NetConfig{
			Seed: 1, Scheme: SchemeWeightedAirtime, Stations: DefaultStations(),
			Weights: map[string]float64{"slow": w},
		})
	}
	for _, w := range []float64{math.Inf(1), 1e30, 1e-7, 0, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %v accepted", w)
				}
			}()
			build(w)
		}()
	}
	build(sched.MinWeight)
	build(sched.MaxWeight)
}

// TestIDWindows: BSS 0 reproduces the historical single-AP identifiers
// exactly, every BSS's nodes sit at their offsets inside its own window,
// and no two windows overlap up to MaxStations.
func TestIDWindows(t *testing.T) {
	w := BuildWorld(NetConfig{Seed: 1, BSSs: DenseTopology(32, 16)})
	c := w.Cells[0]
	if c.Server.ID != 1 || c.AP.ID != 2 || c.Stations[0].Node.ID != 10 {
		t.Fatalf("BSS 0 IDs = %d/%d/%d, want 1/2/10", c.Server.ID, c.AP.ID, c.Stations[0].Node.ID)
	}
	seen := map[pkt.NodeID]bool{}
	for b, c := range w.Cells {
		for i, st := range c.Stations {
			if want := nodeID(b, StationID+pkt.NodeID(i)); st.Node.ID != want {
				t.Errorf("BSS %d station %d id = %d, want %d", b, i, st.Node.ID, want)
			}
		}
		last := nodeID(b, StationID+pkt.NodeID(MaxStations-1))
		for _, id := range []pkt.NodeID{c.Server.ID, c.AP.ID, c.Stations[0].Node.ID, last} {
			if seen[id] {
				t.Fatalf("BSS %d reuses node id %d", b, id)
			}
			seen[id] = true
		}
		if next := nodeID(b+1, ServerID); last >= next {
			t.Fatalf("BSS %d's last station id %d reaches BSS %d's server id %d", b, last, b+1, next)
		}
	}
}

// TestOBSSContention: two saturated co-channel BSSs split the medium
// roughly evenly, and each gets well under the whole channel — the APs
// really contend with each other rather than running on private media.
func TestOBSSContention(t *testing.T) {
	rate := phy.MCS(7, true)
	w := BuildWorld(NetConfig{Seed: 3, Scheme: mac.SchemeFIFO, BSSs: []BSSSpec{
		{Stations: []StationSpec{{Name: "sta0", Rate: rate}}},
		{Stations: []StationSpec{{Name: "sta1", Rate: rate}}},
	}})
	// Saturate both downlinks.
	for b, c := range w.Cells {
		for i := 0; i < 4000; i++ {
			c.AP.Input(&pkt.Packet{
				Size: 1500, Proto: pkt.ProtoUDP,
				Src: c.Server.ID, Dst: c.Stations[0].Node.ID,
				Flow: uint64(b + 1), AC: pkt.ACBE,
			})
		}
	}
	w.Run(2 * sim.Second)

	m := w.Env.Medium
	share0 := float64(m.BSSBusyTime(0)) / float64(m.BusyTime)
	share1 := float64(m.BSSBusyTime(1)) / float64(m.BusyTime)
	if share0 < 0.4 || share0 > 0.6 || share1 < 0.4 || share1 > 0.6 {
		t.Errorf("OBSS busy split = %.3f / %.3f, want ~0.5 each", share0, share1)
	}
	// Collisions charge every colliding BSS its own occupancy while the
	// wall-clock BusyTime counts the overlap once, so the shares sum to
	// slightly over 1.
	if sum := share0 + share1; sum < 0.99 || sum > 1.2 {
		t.Errorf("busy shares sum to %.3f, want ~1.0 (≤1.2 with collision double-charge)", sum)
	}
}

// TestBuildTagsBSS: nodes carry their BSS index so the medium accounts
// occupancy under the right BSS.
func TestBuildTagsBSS(t *testing.T) {
	w := BuildWorld(NetConfig{Seed: 1, Scheme: mac.SchemeAirtimeFQ, BSSs: DenseTopology(3, 3)})
	for b, c := range w.Cells {
		if c.AP.BSS() != b {
			t.Errorf("BSS %d AP tagged BSS %d", b, c.AP.BSS())
		}
		if c.Stations[0].Node.BSS() != b {
			t.Errorf("BSS %d station tagged BSS %d", b, c.Stations[0].Node.BSS())
		}
		if c.AP.ID != nodeID(b, APID) {
			t.Errorf("BSS %d AP id = %d, want %d", b, c.AP.ID, nodeID(b, APID))
		}
	}
}
