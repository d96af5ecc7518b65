package exp

import (
	"repro/internal/campaign"
	"repro/internal/mac"
)

// latencyInstance composes the latency-under-load experiment behind
// Figures 1 and 4: bulk TCP down (and, in the online appendix's
// bidirectional variant, up) on every station from t=0, pings once the
// load has settled, RTTs split fast/slow.
func latencyInstance(scheme mac.Scheme, bidir bool) *Instance {
	ws := []*Workload{TCPDown()}
	if bidir {
		ws = append(ws, TCPUp())
	}
	ws = append(ws, Pings())
	return &Instance{
		Net:       NetConfig{Scheme: scheme, Stations: DefaultStations()},
		Workloads: ws,
		Probes:    []Probe{FastSlowRTT("fast-rtt-ms", "slow-rtt-ms")},
	}
}

// SpecLatency is the declarative form of the experiment.
func SpecLatency() *Spec {
	return &Spec{
		Name: "latency",
		Desc: "ping RTT under bulk TCP load (Figures 1 and 4)",
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
			return latencyInstance(scheme, dir == "bidir"), nil
		},
	}
}
