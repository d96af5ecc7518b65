package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/mac"
)

// fairnessInstance composes one cell of Figure 6: the traffic mix on
// every station, Jain's index over the stations' airtime plus the raw
// shares.
func fairnessInstance(scheme mac.Scheme, workloads []*Workload) *Instance {
	return &Instance{
		Net:       NetConfig{Scheme: scheme, Stations: DefaultStations()},
		Workloads: workloads,
		Probes:    []Probe{Jain("jain"), IndexedShares("share-%d")},
	}
}

// SpecFairness is the declarative form of the experiment. The traffic
// axis selects Figure 6's three mixes: a UDP flood, TCP download, and
// simultaneous TCP download and upload.
func SpecFairness() *Spec {
	return &Spec{
		Name: "fairness",
		Desc: "Jain's airtime fairness index per traffic mix (Figure 6)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "traffic", Values: []string{"udp", "tcp-down", "tcp-bidir"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			var ws []*Workload
			switch tr := p.Str("traffic"); tr {
			case "udp":
				ws = []*Workload{UDPFlood(50e6)}
			case "tcp-down":
				ws = []*Workload{TCPDown()}
			case "tcp-bidir":
				ws = []*Workload{TCPDown(), TCPUp()}
			default:
				return nil, fmt.Errorf("unknown traffic %q", tr)
			}
			return fairnessInstance(scheme, ws), nil
		},
	}
}
