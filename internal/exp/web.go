package exp

import (
	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/traffic"
)

// webInstance composes the page-load-time experiment behind Figure 11
// and its appendix variant: one station fetches page repeatedly while
// others run bulk transfers. Default: the first fast station browses
// while the slow station bulk-downloads; with slowFetches the roles flip
// (the slow station browses against both fast bulk stations).
func webInstance(scheme mac.Scheme, page traffic.WebPage, slowFetches bool) *Instance {
	bulk, browser := StationAt(2), StationAt(0)
	if slowFetches {
		bulk, browser = StationAt(0, 1), StationAt(2)
	}
	return &Instance{
		Net: NetConfig{Scheme: scheme, Stations: DefaultStations()}, // fast1 fast2 slow
		Workloads: []*Workload{
			TCPDown().On(bulk),
			WebBrowse(page).On(browser),
		},
		Probes: []Probe{PLT("plt-ms")},
	}
}

// SpecWeb is the declarative form of the experiment.
func SpecWeb() *Spec {
	return &Spec{
		Name: "web",
		Desc: "web page-load time under bulk load (Figure 11)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "page", Values: []string{"small", "large"}},
			{Name: "browser", Values: []string{"fast"}}, // sweep: fast,slow
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			pageName, err := p.OneOf("page", "small", "large")
			if err != nil {
				return nil, err
			}
			browser, err := p.OneOf("browser", "fast", "slow")
			if err != nil {
				return nil, err
			}
			page := traffic.SmallPage
			if pageName == "large" {
				page = traffic.LargePage
			}
			return webInstance(scheme, page, browser == "slow"), nil
		},
	}
}
