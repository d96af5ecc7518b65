package mac

import (
	"strings"
	"testing"

	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestNewNodeUnknownScheme: an unregistered scheme is an error, not a
// panic, and the error names the registered schemes.
func TestNewNodeUnknownScheme(t *testing.T) {
	s := sim.New(1)
	env := NewEnv(s)
	for _, bogus := range []Scheme{Scheme(9999), Scheme(-1)} {
		n, err := NewNode(env, 1, "ap", Config{Scheme: bogus})
		if err == nil {
			t.Fatalf("NewNode(%v) accepted an unregistered scheme", bogus)
		}
		if n != nil {
			t.Fatalf("NewNode(%v) returned a node alongside the error", bogus)
		}
		if !strings.Contains(err.Error(), "FIFO") || !strings.Contains(err.Error(), "Airtime") {
			t.Errorf("error %q does not list registered schemes", err)
		}
	}
}

// TestSchemeStringFallback: registered schemes print their names,
// unregistered values fall back to Scheme(n).
func TestSchemeStringFallback(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeFIFO:      "FIFO",
		SchemeFQCoDel:   "FQ-CoDel",
		SchemeFQMAC:     "FQ-MAC",
		SchemeAirtimeFQ: "Airtime",
		SchemeDTT:       "DTT",
		Scheme(9999):    "Scheme(9999)",
		Scheme(-7):      "Scheme(-7)",
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
		"FIFO":     SchemeFIFO,
		"fifo":     SchemeFIFO,
		"FQ-CoDel": SchemeFQCoDel,
		"fq-codel": SchemeFQCoDel,
		"airtime":  SchemeAirtimeFQ,
		"DTT":      SchemeDTT,
	} {
		got, ok := SchemeByName(name)
		if !ok || got != want {
			t.Errorf("SchemeByName(%q) = %v, %v; want %v, true", name, got, ok, want)
		}
	}
	if _, ok := SchemeByName("NoSuchScheme"); ok {
		t.Error("SchemeByName accepted an unknown name")
	}
}

// TestAllSchemesCoversPaperSchemes: the registry-derived list starts
// with the five paper schemes in constant order and the presentation
// list Schemes stays a strict subset.
func TestAllSchemesCoversPaperSchemes(t *testing.T) {
	all := AllSchemes()
	if len(all) < 5 {
		t.Fatalf("AllSchemes() = %v, want at least the five paper schemes", all)
	}
	for i, want := range []Scheme{SchemeFIFO, SchemeFQCoDel, SchemeFQMAC, SchemeAirtimeFQ, SchemeDTT} {
		if all[i] != want {
			t.Fatalf("AllSchemes()[%d] = %v, want %v", i, all[i], want)
		}
	}
	names := SchemeNames()
	if len(names) != len(all) {
		t.Fatalf("SchemeNames/AllSchemes length mismatch: %d vs %d", len(names), len(all))
	}
	for _, s := range Schemes {
		if int(s) >= len(all) {
			t.Errorf("paper scheme %v missing from registry", s)
		}
	}
}

// registerOnce registers a test scheme once per test binary, so the
// tests that register one pass under -count=2 too, and returns it.
func registerOnce(name string, comp Composition) Scheme {
	if s, ok := SchemeByName(name); ok {
		return s
	}
	return RegisterScheme(name, comp)
}

// TestRegisterSchemeComposition: a scheme registered at runtime builds
// nodes whose transmit path delivers traffic, without internal/mac
// knowing the composition.
func TestRegisterSchemeComposition(t *testing.T) {
	scheme := registerOnce("test-registry-rr", Composition{
		Desc:     "FIFO qdisc substrate + round-robin station scheduler",
		Queueing: PFIFOQueueing,
		Scheduler: func(_ *Node, _ pkt.AC) sched.StationScheduler {
			return sched.NewRoundRobin()
		},
	})
	if got := scheme.String(); got != "test-registry-rr" {
		t.Fatalf("String() = %q", got)
	}
	if got := scheme.Desc(); !strings.Contains(got, "round-robin") {
		t.Fatalf("Desc() = %q", got)
	}

	r := newRig(t, Config{Scheme: scheme}, phy.MCS(15, true), phy.MCS(0, true))
	if r.ap.StationScheduler(pkt.ACBE) == nil {
		t.Fatal("composed scheduler not attached")
	}
	if r.ap.Qdisc(pkt.ACBE) == nil {
		t.Fatal("composed qdisc substrate not attached")
	}
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

// TestRegisterSchemeValidation: bad registrations panic loudly at
// registration time, duplicates included.
func TestRegisterSchemeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() {
		RegisterScheme("", Composition{Queueing: PFIFOQueueing})
	})
	mustPanic("nil queueing", func() {
		RegisterScheme("test-registry-noqueue", Composition{})
	})
	mustPanic("unknown queueing", func() {
		RegisterScheme("test-registry-badqueue", Composition{Queueing: IntegratedQueueing + 1})
	})
	registerOnce("test-registry-dup", Composition{Queueing: PFIFOQueueing})
	mustPanic("duplicate", func() {
		RegisterScheme("test-registry-dup", Composition{Queueing: PFIFOQueueing})
	})
	// Names resolve case-insensitively, so uniqueness is case-insensitive
	// too — "fifo" must not shadow the paper's FIFO.
	mustPanic("case-variant duplicate", func() {
		RegisterScheme("fifo", Composition{Queueing: PFIFOQueueing})
	})
}

// TestWeightedStationScheme: under a runtime-registered weighted-airtime
// composition, SetStationWeight skews the airtime split accordingly.
func TestWeightedStationScheme(t *testing.T) {
	scheme := registerOnce("test-registry-weighted", Composition{
		Queueing: IntegratedQueueing,
		Scheduler: func(n *Node, _ pkt.AC) sched.StationScheduler {
			return sched.NewWeightedAirtime(n.Config().AirtimeQuantum, true)
		},
	})
	r := newRig(t, Config{Scheme: scheme}, phy.MCS(15, true), phy.MCS(15, true))
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
