package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// voipInstance composes one cell of Table 2: bulk TCP to all four
// stations from t=0, a VoIP stream in access category ac to the slow
// station once queues have filled, and a baseline one-way wired delay
// (the paper's 5 or 50 ms). It probes the call score plus the total
// bulk throughput.
func voipInstance(scheme mac.Scheme, ac pkt.AC, wiredDelay sim.Time) *Instance {
	return &Instance{
		Net: NetConfig{
			Scheme:     scheme,
			Stations:   FourStations(), // fast1 fast2 slow fast3
			WiredDelay: wiredDelay,
		},
		Workloads: []*Workload{
			TCPDown(),
			VoIPCall(ac).On(StationsNamed("slow")),
		},
		Probes: []Probe{MOS("mos"), SumRxMbps("thrp-mbps")},
	}
}

// maxWiredDelayMs bounds the voip scenario's one-way wired delay. The
// paper uses 5 and 50 ms; a delay near sim.Time's range schedules
// events past it.
const maxWiredDelayMs = 60000

// SpecVoIP is the declarative form of the experiment. The qos axis
// marks the voice packets best-effort (BE) or voice (VO).
func SpecVoIP() *Spec {
	return &Spec{
		Name: "voip",
		Desc: "VoIP MOS and bulk throughput (Table 2)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "qos", Values: []string{"BE", "VO"}},
			{Name: "delay-ms", Values: []string{"5", "50"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			qos, err := p.OneOf("qos", "BE", "VO")
			if err != nil {
				return nil, err
			}
			delay, err := p.Int("delay-ms")
			if err != nil {
				return nil, err
			}
			if delay <= 0 || delay > maxWiredDelayMs {
				return nil, fmt.Errorf("delay-ms must lie in 1-%d, got %d", maxWiredDelayMs, delay)
			}
			ac := pkt.ACBE
			if qos == "VO" {
				ac = pkt.ACVO
			}
			return voipInstance(scheme, ac, sim.Time(delay)*sim.Millisecond), nil
		},
	}
}
