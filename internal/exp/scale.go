package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/phy"
)

// scaleSpecs builds the scaled population of §4.1.5 (Figures 9 and 10):
// station 0 is the 1 Mbps legacy client with HT disabled, the last is
// ping-only, the rest are fast bulk stations. The third-party testbed
// runs on a 2.4 GHz HT20 channel; fast stations here use MCS7
// (72.2 Mbps). count must be at least 4.
func scaleSpecs(count int) []StationSpec {
	fastRate := phy.MCS(7, true)
	specs := make([]StationSpec, 0, count)
	specs = append(specs, StationSpec{Name: "slow", Rate: phy.Legacy(1)})
	for i := 1; i < count-1; i++ {
		specs = append(specs, StationSpec{Name: fmt.Sprintf("fast%02d", i), Rate: fastRate})
	}
	specs = append(specs, StationSpec{Name: "pingonly", Rate: fastRate})
	return specs
}

// scaleInstance composes the scaled setup: bulk TCP to everyone but the
// ping-only station, pings to the slow, first-fast and ping-only
// stations, airtime-share and latency probes.
func scaleInstance(scheme mac.Scheme, stations int) *Instance {
	return &Instance{
		Net: NetConfig{Scheme: scheme, Stations: scaleSpecs(stations)},
		Workloads: []*Workload{
			TCPDown().On(AllButLast()),
			Pings().On(StationAt(0, 1, -1)),
		},
		Probes: []Probe{
			ShareAt(0, "slow-share"),
			SumRxMbps("total-mbps"),
			SharesDist(1, -2, "fast-share"),
			RTTAt(1, "fast-rtt-ms"),
			RTTAt(0, "slow-rtt-ms"),
			RTTAt(-1, "sparse-rtt-ms"),
		},
	}
}

// SpecScale is the declarative form of the experiment.
func SpecScale() *Spec {
	return &Spec{
		Name: "scale",
		Desc: "many-station airtime, throughput and latency (Figures 9-10)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"FQ-CoDel", "FQ-MAC", "Airtime"}},
			{Name: "stations", Values: []string{"30"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			count, err := p.Int("stations")
			if err != nil {
				return nil, err
			}
			if count < 4 {
				return nil, fmt.Errorf("stations = %d, want at least 4 (slow, two fast, ping-only)", count)
			}
			if count > MaxStations {
				return nil, fmt.Errorf("stations = %d, want at most %d (one BSS's identifier window)",
					count, MaxStations)
			}
			return scaleInstance(scheme, count), nil
		},
	}
}
