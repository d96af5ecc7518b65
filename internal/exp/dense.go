package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/phy"
)

// DenseTopology splits total stations across bsss co-channel BSSs as
// evenly as possible (earlier BSSs take the remainder). The first
// station of every BSS is a slow MCS0 client — the paper's head-of-line
// blocker, one per cell — and the rest run MCS7, the rate dense
// deployments realistically sustain. Station names carry the BSS index
// ("b03-slow", "b03-f007"), so they stay unique world-wide.
func DenseTopology(total, bsss int) []BSSSpec {
	if bsss < 1 {
		bsss = 1
	}
	if total < bsss {
		total = bsss
	}
	fast := phy.MCS(7, true)
	specs := make([]BSSSpec, bsss)
	base, rem := total/bsss, total%bsss
	for b := range specs {
		count := base
		if b < rem {
			count++
		}
		stations := make([]StationSpec, 0, count)
		stations = append(stations, StationSpec{Name: fmt.Sprintf("b%02d-slow", b), Rate: SlowRate})
		for i := 1; i < count; i++ {
			stations = append(stations, StationSpec{Name: fmt.Sprintf("b%02d-f%03d", b, i), Rate: fast})
		}
		specs[b] = BSSSpec{Name: fmt.Sprintf("bss%d", b), Stations: stations}
	}
	return specs
}

// denseSlowNames returns the per-BSS slow stations' names — the latency
// probes' ping targets.
func denseSlowNames(bsss int) []string {
	names := make([]string, bsss)
	for b := range names {
		names[b] = fmt.Sprintf("b%02d-slow", b)
	}
	return names
}

// DenseOfferedBps is the world-wide offered UDP load of the dense
// scenario. It is fixed regardless of population so the per-packet work
// is comparable across sweep points: more stations means thinner flows,
// not more traffic than the medium can ever carry.
const DenseOfferedBps = 150e6

// SpecDense is the dense-deployment scenario: total stations spread over
// 1-16 co-channel BSSs, every station receiving a thin slice of a fixed
// world-wide UDP load, pings to each BSS's slow station. Probes report
// the OBSS occupancy split, intra-BSS airtime fairness and per-BSS
// latency.
func SpecDense() *Spec {
	return &Spec{
		Name: "dense",
		Desc: "multi-BSS dense deployment: OBSS occupancy, per-BSS fairness and latency",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"Airtime", "FQ-CoDel", "FIFO"}},
			{Name: "stations", Values: []string{"40", "200"}},
			{Name: "bss", Values: []string{"1", "4", "8", "16"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			total, err := p.Int("stations")
			if err != nil {
				return nil, err
			}
			bsss, err := p.Int("bss")
			if err != nil {
				return nil, err
			}
			if bsss < 1 || bsss > 64 {
				return nil, fmt.Errorf("bss = %d, want 1-64", bsss)
			}
			if total < bsss {
				return nil, fmt.Errorf("stations = %d, want at least one per BSS (%d)", total, bsss)
			}
			if total > bsss*MaxStations {
				return nil, fmt.Errorf("stations = %d, want at most %d per BSS (%d)",
					total, MaxStations, bsss)
			}
			return &Instance{
				Net: NetConfig{Scheme: scheme, BSSs: DenseTopology(total, bsss)},
				Workloads: []*Workload{
					UDPFlood(DenseOfferedBps / float64(total)),
					Pings().On(StationsNamed(denseSlowNames(bsss)...)),
				},
				Probes: []Probe{
					SumRxMbps("total-mbps"),
					OBSSJain("obss-jain"),
					BSSShares("bss-share-%d"),
					PerBSSJain("jain-bss-%d"),
					PerBSSRTT("rtt-ms-bss-%d"),
				},
			}, nil
		},
	}
}
