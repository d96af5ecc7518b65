package mac

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// TestNewNodeUnknownScheme: a Scheme value outside the set is an error,
// not a panic, and the error names the schemes.
func TestNewNodeUnknownScheme(t *testing.T) {
	s := sim.New(1)
	env := NewEnv(s)
	for _, bogus := range []Scheme{numSchemes, Scheme(9999), Scheme(-1)} {
		n, err := NewNode(env, 1, "ap", Config{Scheme: bogus})
		if err == nil {
			t.Fatalf("NewNode(%v) accepted a scheme outside the set", bogus)
		}
		if n != nil {
			t.Fatalf("NewNode(%v) returned a node alongside the error", bogus)
		}
		if !strings.Contains(err.Error(), "FIFO") || !strings.Contains(err.Error(), "Weighted-Airtime") {
			t.Errorf("error %q does not list the schemes", err)
		}
	}
}

// TestSchemeStringFallback: schemes print their names, values outside
// the set fall back to Scheme(n).
func TestSchemeStringFallback(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeFIFO:            "FIFO",
		SchemeFQCoDel:         "FQ-CoDel",
		SchemeFQMAC:           "FQ-MAC",
		SchemeAirtimeFQ:       "Airtime",
		SchemeDTT:             "DTT",
		SchemeAirtimeRR:       "Airtime-RR",
		SchemeWeightedAirtime: "Weighted-Airtime",
		Scheme(7):             "Scheme(7)",
		Scheme(9999):          "Scheme(9999)",
		Scheme(-7):            "Scheme(-7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestSchemeByName: exact and case-insensitive resolution, and rejection
// of unknown names.
func TestSchemeByName(t *testing.T) {
	for name, want := range map[string]Scheme{
		"FIFO":             SchemeFIFO,
		"fifo":             SchemeFIFO,
		"FQ-CoDel":         SchemeFQCoDel,
		"fq-codel":         SchemeFQCoDel,
		"airtime":          SchemeAirtimeFQ,
		"DTT":              SchemeDTT,
		"airtime-rr":       SchemeAirtimeRR,
		"WEIGHTED-AIRTIME": SchemeWeightedAirtime,
	} {
		got, ok := SchemeByName(name)
		if !ok || got != want {
			t.Errorf("SchemeByName(%q) = %v, %v; want %v, true", name, got, ok, want)
		}
	}
	for _, name := range []string{"NoSuchScheme", "", "airtime-"} {
		if _, ok := SchemeByName(name); ok {
			t.Errorf("SchemeByName accepted %q", name)
		}
	}
}

// TestAllSchemesCoversPaperSchemes: the set is exactly the five paper
// schemes and the two ablations, numbered 0-6 in that order, and the
// presentation list Schemes is a strict subset.
func TestAllSchemesCoversPaperSchemes(t *testing.T) {
	want := []Scheme{SchemeFIFO, SchemeFQCoDel, SchemeFQMAC, SchemeAirtimeFQ, SchemeDTT,
		SchemeAirtimeRR, SchemeWeightedAirtime}
	wantNames := []string{"FIFO", "FQ-CoDel", "FQ-MAC", "Airtime", "DTT", "Airtime-RR", "Weighted-Airtime"}
	all, names := AllSchemes(), SchemeNames()
	if !slices.Equal(all, want) {
		t.Fatalf("AllSchemes() = %v, want %v", all, want)
	}
	if !slices.Equal(names, wantNames) {
		t.Fatalf("SchemeNames() = %q, want %q", names, wantNames)
	}
	for i, s := range all {
		if int(s) != i {
			t.Errorf("%v = %d, want %d", s, int(s), i)
		}
		if s.Desc() == "" {
			t.Errorf("%v has no description", s)
		}
	}
	for _, s := range Schemes {
		if !slices.Contains(all, s) {
			t.Errorf("paper scheme %v missing from AllSchemes", s)
		}
	}
}

// TestRegisterSchemeComposition: Airtime-RR, the integrated structure
// under a round-robin station scheduler, delivers every packet to a fast
// and a slow station and leaves nothing queued.
func TestRegisterSchemeComposition(t *testing.T) {
	if got := SchemeAirtimeRR.Desc(); !strings.Contains(got, "round-robin") {
		t.Fatalf("Desc() = %q", got)
	}
	r := newRig(t, Config{Scheme: SchemeAirtimeRR}, phy.MCS(15, true), phy.MCS(0, true))
	const n = 100
	for i := 0; i < n; i++ {
		r.ap.Input(dataPkt(10, 1500, 1))
		r.ap.Input(dataPkt(11, 1500, 2))
	}
	r.s.RunUntil(3 * sim.Second)
	if got := len(r.received[10]); got != n {
		t.Errorf("station 10 received %d of %d", got, n)
	}
	if got := len(r.received[11]); got != n {
		t.Errorf("station 11 received %d of %d", got, n)
	}
	if q := queuedPackets(r.ap); q != 0 {
		t.Errorf("%d packets stuck in queues", q)
	}
}

// TestWeightedStationScheme: under Weighted-Airtime, SetStationWeight
// skews the airtime split accordingly.
func TestWeightedStationScheme(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeWeightedAirtime}, phy.MCS(15, true), phy.MCS(15, true))
	r.ap.SetStationWeight(r.ap.Station(10), 3)
	stop1 := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(10, 1500, 1)) })
	stop2 := r.s.Ticker(200*sim.Microsecond, func() { r.ap.Input(dataPkt(11, 1500, 2)) })
	r.s.RunUntil(5 * sim.Second)
	stop1()
	stop2()
	heavy := r.ap.Station(10).Airtime().Seconds()
	light := r.ap.Station(11).Airtime().Seconds()
	if ratio := heavy / light; ratio < 2.6 || ratio > 3.4 {
		t.Errorf("airtime ratio = %.2f, want ~3 under weight 3", ratio)
	}
}
