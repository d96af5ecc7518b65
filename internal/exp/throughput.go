package exp

import (
	"repro/internal/campaign"
	"repro/internal/mac"
)

// throughputInstance composes the TCP download throughput experiment
// behind Figure 7 (and its bidirectional appendix variant): bulk TCP
// down (and optionally up) on every station, per-station goodput plus
// the average.
func throughputInstance(scheme mac.Scheme, bidir bool) *Instance {
	ws := []*Workload{TCPDown()}
	if bidir {
		ws = append(ws, TCPUp())
	}
	return &Instance{
		Net:       NetConfig{Scheme: scheme, Stations: DefaultStations()},
		Workloads: ws,
		Probes: []Probe{
			PerStation(GoodputCol("mbps-")),
			AvgGoodput("avg-mbps"),
		},
	}
}

// SpecThroughput is the declarative form of the experiment.
func SpecThroughput() *Spec {
	return &Spec{
		Name: "throughput",
		Desc: "per-station TCP download goodput (Figure 7)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "dir", Values: []string{"down"}}, // sweep: down,bidir
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			dir, err := p.OneOf("dir", "down", "bidir")
			if err != nil {
				return nil, err
			}
			return throughputInstance(scheme, dir == "bidir"), nil
		},
	}
}
