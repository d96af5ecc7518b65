package exp

import (
	"repro/internal/campaign"
	"repro/internal/mac"
)

// sparseInstance composes the sparse-station optimisation experiment
// behind Figure 8 under the Airtime scheme: bulk load (UDP, or TCP
// download if tcp) on the first three stations, a ping-only fourth,
// optionally with the optimisation disabled.
func sparseInstance(tcp, disable bool) *Instance {
	bulk := UDPFlood(50e6)
	if tcp {
		bulk = TCPDown()
	}
	return &Instance{
		Net: NetConfig{
			Scheme:   mac.SchemeAirtimeFQ,
			Stations: FourStations(),
			AP:       mac.Config{DisableSparse: disable},
		},
		Workloads: []*Workload{
			bulk.On(FirstStations(3)),
			Pings().On(StationAt(3)),
		},
		Probes: []Probe{RTTAt(3, "sparse-rtt-ms")},
	}
}

// SpecSparse is the declarative form of the experiment.
func SpecSparse() *Spec {
	return &Spec{
		Name: "sparse",
		Desc: "sparse-station optimisation latency (Figure 8)",
		Axes: []campaign.Axis{
			{Name: "bulk", Values: []string{"udp", "tcp"}},
			{Name: "opt", Values: []string{"on", "off"}},
		},
		Build: func(p Params) (*Instance, error) {
			bulk, err := p.OneOf("bulk", "udp", "tcp")
			if err != nil {
				return nil, err
			}
			opt, err := p.OneOf("opt", "on", "off")
			if err != nil {
				return nil, err
			}
			return sparseInstance(bulk == "tcp", opt == "off"), nil
		},
	}
}
