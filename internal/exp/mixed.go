package exp

import (
	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/traffic"
)

// SpecMixed is the composite scenario the Workload/Probe redesign
// exists for — a traffic mix no bespoke runner covered: a UDP flood, a
// bulk TCP download, a VO-marked VoIP call and a web-browsing session
// share one four-station cell, probed for per-station shares and
// goodput, fairness, call quality, page-load time and latency at once.
func SpecMixed() *Spec {
	return &Spec{
		Name: "mixed",
		Desc: "UDP + TCP + VoIP + web composite cell (beyond the paper's figures)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			return &Instance{
				Net: NetConfig{Scheme: scheme, Stations: FourStations()}, // fast1 fast2 slow fast3
				Workloads: []*Workload{
					UDPFlood(30e6).On(StationsNamed("fast1")),
					TCPDown().On(StationsNamed("fast3")),
					VoIPCall(pkt.ACVO).On(StationsNamed("slow")),
					WebBrowse(traffic.SmallPage).On(StationsNamed("fast2")),
					Pings().On(StationsNamed("fast1", "slow")),
				},
				Probes: []Probe{
					PerStation(ShareCol("share-"), GoodputCol("goodput-mbps-")),
					Jain("jain"),
					SumRxMbps("total-mbps"),
					MOS("mos"),
					PLT("plt-ms"),
					FastSlowRTT("fast-rtt-ms", "slow-rtt-ms"),
				},
			}, nil
		},
	}
}
