// mixedworkload demonstrates the declarative experiment-definition API:
// a scenario the paper never measured — a VoIP call, web browsing and a
// weighted bulk download sharing one cell — composed from Workload and
// Probe building blocks instead of a hand-wired runner, then executed
// two ways:
//
//  1. registered as a campaign Spec and swept over schemes through the
//     parallel engine (deterministic artifacts; Spec.Describe lists what
//     it emits), and
//  2. attached imperatively to a live Testbed via Testbed.Attach.
package main

import (
	"fmt"
	"strings"

	"repro/wifi"
)

// spec declares the scenario: four stations, a VO-marked call to the
// slow station, a browser on fast1, bulk downloads with a doubled
// airtime weight for the browsing station, and probes for call quality,
// page loads, shares and fairness.
func spec() *wifi.Spec {
	return &wifi.Spec{
		Name: "voip-web-bulk",
		Desc: "VoIP + web browsing + weighted bulk downloads in one cell",
		Axes: []wifi.Axis{
			{Name: "scheme", Values: []string{"FIFO", "Airtime", "Weighted-Airtime"}},
			{Name: "browser-weight", Values: []string{"2"}},
		},
		Build: func(p wifi.SpecParams) (*wifi.SpecInstance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			w, err := p.Float("browser-weight")
			if err != nil {
				return nil, err
			}
			return &wifi.SpecInstance{
				Net: wifi.TestbedConfig{
					Scheme:   scheme,
					Stations: wifi.FourStations(), // fast1 fast2 slow fast3
					Weights:  map[string]float64{"fast1": w},
				},
				Workloads: []*wifi.Workload{
					wifi.TCPDownload().On(wifi.StationsNamed("fast1", "fast2", "fast3")),
					wifi.VoIPCall(true).On(wifi.StationsNamed("slow")),
					wifi.WebBrowsing(wifi.SmallPage).On(wifi.StationsNamed("fast1")),
				},
				Probes: []wifi.Probe{
					wifi.MOSProbe("mos"),
					wifi.PLTProbe("plt-ms"),
					wifi.ProbePerStation(wifi.ShareCol("share-")),
					wifi.JainProbe("jain"),
				},
			}, nil
		},
	}
}

func main() {
	// --- 1. The Spec through the campaign engine --------------------------
	s := spec()
	reg := wifi.NewScenarioRegistry()
	s.Register(reg)

	d, err := s.Describe()
	if err != nil {
		panic(err)
	}
	fmt.Printf("registered scenario %q\n  stations: %s\n  metrics:  %s\n\n",
		s.Name, strings.Join(d.Stations, ", "), strings.Join(d.Metrics, ", "))

	res, err := reg.Execute(wifi.Plan{
		Scenarios: []string{"voip-web-bulk"},
		Reps:      2,
		Duration:  4 * wifi.Second,
		Warmup:    2 * wifi.Second,
		BaseSeed:  7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Render())

	// --- 2. The same workloads on a live testbed --------------------------
	fmt.Println("\nimperative form (Testbed.Attach, Airtime scheme):")
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed: 7, Scheme: wifi.SchemeAirtimeFQ, Stations: wifi.FourStations(),
	})
	tb.Attach(wifi.TCPDownload().On(wifi.StationsNamed("fast2", "fast3")))
	tb.Run(2 * wifi.Second) // let the bulk flows settle first
	tb.Attach(wifi.VoIPCall(true).On(wifi.StationsNamed("slow")))
	tb.Attach(wifi.WebBrowsing(wifi.SmallPage).On(wifi.StationsNamed("fast1")))
	tb.Arm()
	tb.Run(6 * wifi.Second)
	m := tb.Collect(wifi.MOSProbe("mos"), wifi.PLTProbe("plt-ms"), wifi.JainProbe("jain"))

	mos, _ := m.Scalar("mos")
	jain, _ := m.Scalar("jain")
	fmt.Printf("  MOS %.2f, page loads %d (median %.0f ms), Jain %.3f\n",
		mos, m.Sample("plt-ms").N(), m.Sample("plt-ms").Median(), jain)
	fmt.Println("\nThe call stays pristine and pages load fast while bulk flows")
	fmt.Println("saturate the cell — no bespoke runner was written for any of it.")
}
