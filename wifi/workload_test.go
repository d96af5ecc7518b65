package wifi_test

import (
	"strings"
	"testing"

	"repro/wifi"
)

// TestTestbedAttachCollect drives the declarative workload/probe API
// imperatively through the facade: attach, warm up, arm, run, collect.
func TestTestbedAttachCollect(t *testing.T) {
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed: 11, Scheme: wifi.SchemeAirtimeFQ, Stations: wifi.DefaultStations(),
	})
	tb.Attach(wifi.UDPDownload(40e6))
	tb.Attach(wifi.VoIPCall(true).On(wifi.StationsNamed("slow")))
	tb.Attach(wifi.ICMPPings(0).On(wifi.StationAt(0)))
	tb.Run(1 * wifi.Second)
	tb.Arm()
	tb.Run(5 * wifi.Second)

	m := tb.Collect(
		wifi.ProbePerStation(wifi.ShareCol("share-"), wifi.GoodputCol("goodput-mbps-")),
		wifi.JainProbe("jain"),
		wifi.MOSProbe("mos"),
		wifi.RTTProbe(0, "rtt-ms"),
	)
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
	rt := tb.Runtime()
	if len(rt.Goodputs()) != 3 || rt.Goodputs()[0] <= 0 {
		t.Errorf("runtime goodputs = %v", rt.Goodputs())
	}
}

// TestSpecFacade registers a custom Spec through the facade and executes
// it on the campaign engine.
func TestSpecFacade(t *testing.T) {
	spec := &wifi.Spec{
		Name: "facade-spec",
		Desc: "facade-defined composite",
		Axes: []wifi.Axis{{Name: "scheme", Values: []string{"Airtime"}}},
		Build: func(p wifi.SpecParams) (*wifi.SpecInstance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			return &wifi.SpecInstance{
				Net: wifi.TestbedConfig{Scheme: scheme, Stations: wifi.DefaultStations()},
				Workloads: []*wifi.Workload{
					wifi.TCPDownload().On(wifi.AllButLast()),
					wifi.ICMPPings(0).On(wifi.StationAt(-1)),
				},
				Probes: []wifi.Probe{
					wifi.AvgGoodputProbe("avg-mbps"),
					wifi.RTTProbe(-1, "idle-rtt-ms"),
				},
			}, nil
		},
	}
	reg := wifi.NewScenarioRegistry()
	spec.Register(reg)
	if reg.Get("facade-spec") == nil {
		t.Fatal("facade spec not registered")
	}
	var d *wifi.SpecDescription
	d, err := spec.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stations) != 3 || strings.Join(d.Metrics, ",") != "avg-mbps,idle-rtt-ms" {
		t.Errorf("Describe() = %d stations, metrics %v", len(d.Stations), d.Metrics)
	}
	res, err := reg.Execute(wifi.Plan{
		Scenarios: []string{"facade-spec"},
		Reps:      1, Duration: 2 * wifi.Second, Warmup: 1 * wifi.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || len(res.Cells[0].Metrics) == 0 || len(res.Cells[0].Dists) == 0 {
		t.Fatalf("unexpected result shape: %+v", res.Cells)
	}
}
