package exp

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/ether"
	"repro/internal/mac"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// udpInstance composes the one-way UDP flood experiment behind Figure 5
// and the measured column of Table 1: a CBR flood of rateBps to every
// station, per-station share/goodput/aggregation columns plus the
// total. weights assigns relative airtime weights by station name (only
// weight-honouring schemes such as Weighted-Airtime react).
func udpInstance(scheme mac.Scheme, rateBps float64, weights map[string]float64) *Instance {
	return &Instance{
		Net: NetConfig{
			Scheme: scheme, Stations: DefaultStations(), Weights: weights,
		},
		Workloads: []*Workload{UDPFlood(rateBps)},
		Probes: []Probe{
			PerStation(ShareCol("share-"), GoodputCol("goodput-mbps-"), AggCol("aggr-")),
			TotalGoodput("total-mbps"),
		},
	}
}

// CheckUDPRate reports whether a UDPFlood of mbps to each of stations
// stations can run. The flood sends a traffic.UDPSize (1500-byte)
// datagram every 12000/mbps µs, truncated to whole nanoseconds, which
// must be a positive sim.Time; !(x) also rejects NaN. Every station's
// flood crosses the one wired link, which queues without limit: a total
// above its rate grows memory for as long as the world runs. The error's text
// follows the name of the axis or flag that carries the rate, as in
// "rate-mbps must lie in …".
func CheckUDPRate(mbps float64, stations int) error {
	if gap := traffic.UDPSize * 8 / (mbps * 1e6) * 1e9; !(gap >= 1 && gap < math.MaxInt64) {
		return fmt.Errorf("must lie in (1.3e-12, 1.2e7], got %v", mbps)
	}
	if n := float64(stations); n*mbps*1e6 > ether.GigabitRate {
		return fmt.Errorf("= %v over %v stations exceeds the %v Mbps wired link",
			mbps, n, ether.GigabitRate/1e6)
	}
	return nil
}

// SpecUDP is the declarative form of the experiment.
func SpecUDP() *Spec {
	return &Spec{
		Name: "udp",
		Desc: "airtime shares and goodput under one-way UDP (Figure 5)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "rate-mbps", Values: []string{"50"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			rate, err := p.Float("rate-mbps")
			if err != nil {
				return nil, err
			}
			if err := CheckUDPRate(rate, len(DefaultStations())); err != nil {
				return nil, fmt.Errorf("rate-mbps %w", err)
			}
			return udpInstance(scheme, rate*1e6, nil), nil
		},
	}
}

// SpecWeightedUDP is the UDP experiment under per-station airtime
// weights (the Weighted-Airtime extension scheme's policy knob).
func SpecWeightedUDP() *Spec {
	return &Spec{
		Name: "weighted-udp",
		Desc: "airtime shares under per-station weights (Weighted-Airtime scheme)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"Weighted-Airtime"}}, // sweep: any registered scheme
			{Name: "slow-weight", Values: []string{"2"}},           // sweep: 0.5,1,2,4
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			w, err := p.Float("slow-weight")
			if err != nil {
				return nil, err
			}
			if err := sched.CheckWeight(w); err != nil {
				return nil, fmt.Errorf("bad slow-weight: %w", err)
			}
			inst := udpInstance(scheme, 50e6, map[string]float64{"slow": w})
			inst.Probes = []Probe{
				PerStation(ShareCol("share-"), GoodputCol("goodput-mbps-")),
			}
			return inst, nil
		},
	}
}

// SpecTable1 is the declarative form of the Table 1 comparison: the UDP
// flood workload with the model-versus-measured probe. Its FIFO cell is
// the table's baseline block, its Airtime cell the airtime-fairness
// block.
func SpecTable1() *Spec {
	return &Spec{
		Name: "table1",
		Desc: "analytical model vs measured UDP throughput (Table 1)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"FIFO", "Airtime"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			inst := udpInstance(scheme, 50e6, nil)
			inst.Probes = []Probe{Table1(scheme == mac.SchemeAirtimeFQ)}
			return inst, nil
		},
	}
}
