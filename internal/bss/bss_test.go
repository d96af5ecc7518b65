package bss

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestIDWindows(t *testing.T) {
	// BSS 0 must reproduce the historical single-AP identifiers exactly.
	if ServerID(0) != 1 || APID(0) != 2 || StationID(0, 0) != 10 {
		t.Fatalf("BSS 0 IDs = %d/%d/%d, want 1/2/10", ServerID(0), APID(0), StationID(0, 0))
	}
	// Windows of distinct BSSs never overlap.
	seen := map[pkt.NodeID]bool{}
	for b := 0; b < 16; b++ {
		for _, id := range []pkt.NodeID{ServerID(b), APID(b), StationID(b, 0), StationID(b, MaxStations-1)} {
			if seen[id] {
				t.Fatalf("BSS %d reuses node id %d", b, id)
			}
			seen[id] = true
		}
	}
}

func TestTopologyDescribe(t *testing.T) {
	fast := StationDef{Name: "f", Rate: phy.MCS(7, true)}
	cases := []struct {
		top  Topology
		want string
	}{
		{Uniform(1, []StationDef{fast, fast}), "1 BSS, 2 stations"},
		{Uniform(4, []StationDef{fast, fast, fast}), "4 BSS × 3 stations (12 total)"},
		{Topology{{Stations: []StationDef{fast}}, {Stations: []StationDef{fast, fast}}},
			"2 BSS (1+2 stations, 3 total)"},
		{Topology{}, "empty"},
	}
	for _, c := range cases {
		if got := c.top.Describe(); got != c.want {
			t.Errorf("Describe() = %q, want %q", got, c.want)
		}
	}
	if n := Uniform(8, []StationDef{fast, fast}).TotalStations(); n != 16 {
		t.Errorf("TotalStations = %d, want 16", n)
	}
}

// TestOBSSContention: two saturated co-channel BSSs split the medium
// roughly evenly, and each gets well under the whole channel — the APs
// really contend with each other rather than running on private media.
func TestOBSSContention(t *testing.T) {
	s := sim.New(3)
	env := mac.NewEnv(s)
	rate := phy.MCS(7, true)
	top := Uniform(2, []StationDef{{Name: "sta", Rate: rate}})
	w, err := Build(env, top, Config{
		AP:      mac.Config{Scheme: mac.SchemeFIFO},
		Station: mac.Config{Scheme: mac.SchemeFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range w.Cells {
		cell.Stations[0].Deliver = func(*pkt.Packet) {}
	}

	// Saturate both downlinks.
	feed := func(cell *Cell, flow uint64) {
		for i := 0; i < 4000; i++ {
			cell.AP.Input(&pkt.Packet{
				Size: 1500, Proto: pkt.ProtoUDP,
				Src: ServerID(cell.Index), Dst: StationID(cell.Index, 0),
				Flow: flow, AC: pkt.ACBE,
			})
		}
	}
	feed(w.Cells[0], 1)
	feed(w.Cells[1], 2)
	s.RunUntil(2 * sim.Second)

	share0, share1 := w.BusyShare(0), w.BusyShare(1)
	if share0 < 0.4 || share0 > 0.6 || share1 < 0.4 || share1 > 0.6 {
		t.Errorf("OBSS busy split = %.3f / %.3f, want ~0.5 each", share0, share1)
	}
	// Collisions charge every colliding BSS its own occupancy while the
	// wall-clock BusyTime counts the overlap once, so the shares sum to
	// slightly over 1.
	if sum := share0 + share1; sum < 0.99 || sum > 1.2 {
		t.Errorf("busy shares sum to %.3f, want ~1.0 (≤1.2 with collision double-charge)", sum)
	}
	// The channel was genuinely shared: each BSS's occupancy is far below
	// what it would have alone.
	total := env.Medium.BusyTime
	if bt := env.Medium.BSSBusyTime(0); float64(bt) > 0.6*float64(total) {
		t.Errorf("BSS 0 consumed %.0f%% of the busy time, medium not shared", 100*float64(bt)/float64(total))
	}
}

// TestBuildTagsBSS: nodes carry their cell index so the medium accounts
// occupancy under the right BSS.
func TestBuildTagsBSS(t *testing.T) {
	s := sim.New(1)
	env := mac.NewEnv(s)
	top := Uniform(3, []StationDef{{Name: "s", Rate: phy.MCS(0, true)}})
	w, err := Build(env, top, Config{
		AP:      mac.Config{Scheme: mac.SchemeAirtimeFQ},
		Station: mac.Config{Scheme: mac.SchemeFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	for b, cell := range w.Cells {
		if cell.AP.BSS() != b {
			t.Errorf("cell %d AP tagged BSS %d", b, cell.AP.BSS())
		}
		if cell.Stations[0].BSS() != b {
			t.Errorf("cell %d station tagged BSS %d", b, cell.Stations[0].BSS())
		}
		if cell.AP.ID != APID(b) {
			t.Errorf("cell %d AP id = %d, want %d", b, cell.AP.ID, APID(b))
		}
	}
}
