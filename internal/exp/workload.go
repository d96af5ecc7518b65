package exp

import (
	"fmt"

	"repro/internal/pkt"
	"repro/internal/traffic"
)

// A Workload is a named, parameterised traffic attachment: it knows how
// to attach itself between the wired server and a wireless station and
// publishes its measurement surfaces (bytes received, RTT samples, call
// scores, page-load times) into the run's Runtime so Probes can observe
// it. Workloads are the building blocks of declarative experiment Specs;
// every paper experiment is a composition of the constructors below.
//
// A workload targets a set of stations (default: all) and attaches in
// one of two phases: PhaseStart (simulation time zero, so the flow
// reaches steady state during warmup) or PhaseMeasure (the measurement
// start, for flows whose whole lifetime is observed, like pings or page
// fetches).
type Workload struct {
	// Kind is the workload's registered family name, e.g. "tcp-down".
	Kind string
	// Label is the human-readable parameterised description.
	Label string
	// Phase selects when the workload attaches.
	Phase Phase
	// Target selects the stations the workload attaches to.
	Target Target

	attach func(rt *Runtime, i int, st *Station)
}

// Phase is a workload attachment time.
type Phase int

// The two attachment phases.
const (
	// PhaseStart attaches at simulation time zero, before warmup.
	PhaseStart Phase = iota
	// PhaseMeasure attaches at the start of the measured interval.
	PhaseMeasure
)

func (p Phase) String() string {
	if p == PhaseMeasure {
		return "measure"
	}
	return "start"
}

// On retargets the workload and returns it, for chaining:
// TCPDown().On(FirstStations(3)).
func (w *Workload) On(t Target) *Workload {
	w.Target = t
	return w
}

// At moves the workload to the given phase and returns it.
func (w *Workload) At(p Phase) *Workload {
	w.Phase = p
	return w
}

// Target selects the stations a workload attaches to.
type Target struct {
	desc  string
	match func(i, n int, name string) bool
}

// Describe renders the selector for cmd/campaign describe.
func (t Target) Describe() string {
	if t.match == nil {
		return "all stations"
	}
	return t.desc
}

// Matches reports whether station i (of n, with the given name) is
// selected. The zero Target selects every station.
func (t Target) Matches(i, n int, name string) bool {
	if t.match == nil {
		return true
	}
	return t.match(i, n, name)
}

// AllStations selects every station (the default).
func AllStations() Target { return Target{} }

// StationsNamed selects stations by name.
func StationsNamed(names ...string) Target {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return Target{
		desc:  fmt.Sprintf("stations %v", names),
		match: func(_, _ int, name string) bool { return set[name] },
	}
}

// FirstStations selects the first k stations in creation order.
func FirstStations(k int) Target {
	return Target{
		desc:  fmt.Sprintf("first %d stations", k),
		match: func(i, _ int, _ string) bool { return i < k },
	}
}

// StationAt selects stations by index; negative indices count from the
// end (-1 is the last station).
func StationAt(idxs ...int) Target {
	return Target{
		desc: fmt.Sprintf("stations at %v", idxs),
		match: func(i, n int, _ string) bool {
			for _, at := range idxs {
				if i == resolveIdx(at, n) {
					return true
				}
			}
			return false
		},
	}
}

// AllButLast selects every station except the last.
func AllButLast() Target {
	return Target{
		desc:  "all but the last station",
		match: func(i, n int, _ string) bool { return i < n-1 },
	}
}

// --- Constructors --------------------------------------------------------

// TCPDown is a persistent bulk TCP download from the server to each
// selected station; the station-side byte count feeds goodput probes.
func TCPDown() *Workload {
	return &Workload{
		Kind: "tcp-down", Label: "bulk TCP download",
		attach: func(rt *Runtime, i int, st *Station) {
			conn := st.Cell.DownloadTCP(st, pkt.ACBE)
			rt.tapRx(i, conn.Server().TotalReceived)
		},
	}
}

// TCPUp is a persistent bulk TCP upload from each selected station to
// the server. Uploads terminate at the wired server, so they publish no
// station-side goodput tap; they exist to load the uplink.
func TCPUp() *Workload {
	return &Workload{
		Kind: "tcp-up", Label: "bulk TCP upload",
		attach: func(rt *Runtime, _ int, st *Station) {
			st.Cell.UploadTCP(st, pkt.ACBE)
		},
	}
}

// UDPFlood is a constant-bitrate UDP flood from the server to each
// selected station (the paper's iperf stand-in).
func UDPFlood(rateBps float64) *Workload {
	return &Workload{
		Kind:  "udp-flood",
		Label: fmt.Sprintf("%.0f Mbps CBR UDP download", rateBps/1e6),
		attach: func(rt *Runtime, i int, st *Station) {
			_, sink := st.Cell.DownloadUDP(st, rateBps, pkt.ACBE)
			rt.tapRx(i, sink.RxBytes)
		},
	}
}

// Pings sends ICMP echoes every 100 ms (traffic.PingerConfig's default)
// from the server to each selected station; RTT samples feed latency
// probes. Echo identifiers are assigned sequentially in attachment
// order, so identical compositions ping identically. Defaults to
// PhaseMeasure, as the paper measures latency only after load settles.
func Pings() *Workload {
	return &Workload{
		Kind: "ping", Label: "ICMP ping", Phase: PhaseMeasure,
		attach: func(rt *Runtime, i int, st *Station) {
			rt.pingID++
			p := st.Cell.Ping(st, 0, rt.pingID)
			rt.tapRTT(i, p.RTTSample())
		},
	}
}

// VoIPCall is a one-way G.711 voice stream from the server to each
// selected station, marked with the given access category; the sink's
// E-model score feeds MOS probes. Defaults to PhaseMeasure (the paper
// starts the call once bulk flows have filled the queues).
func VoIPCall(ac pkt.AC) *Workload {
	return &Workload{
		Kind:  "voip",
		Label: fmt.Sprintf("G.711 VoIP call (%v)", ac),
		Phase: PhaseMeasure,
		attach: func(rt *Runtime, i int, st *Station) {
			_, sink := st.Cell.VoIPDown(st, ac)
			rt.tapMOS(i, sink.MOS)
		},
	}
}

// WebBrowse is an emulated browser at each selected station fetching the
// given page from the server back to back; page-load times feed PLT
// probes. Defaults to PhaseMeasure.
func WebBrowse(page traffic.WebPage) *Workload {
	return &Workload{
		Kind:  "web",
		Label: fmt.Sprintf("web browsing (%s page)", page.Name),
		Phase: PhaseMeasure,
		attach: func(rt *Runtime, i int, st *Station) {
			wc := st.Cell.Web(st, page)
			wc.Start()
			rt.tapPLT(i, wc.PLTSample())
		},
	}
}
