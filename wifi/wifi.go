// Package wifi is the public API of the airtime-fairness reproduction: a
// discrete-event model of the Linux WiFi transmit path implementing the
// two contributions of Høiland-Jørgensen et al., "Ending the Anomaly:
// Achieving Low Latency and Airtime Fairness in WiFi" (USENIX ATC 2017) —
// the integrated per-TID FQ-CoDel queueing structure (§3.1) and the
// deficit airtime-fairness scheduler (§3.2) — alongside the three baseline
// configurations the paper compares against.
//
// The quickest way in is Testbed: it assembles the paper's setup (a wired
// server, an access point with a selectable queueing Scheme, and a set of
// wireless stations) and exposes traffic generators and measurement
// helpers. Every table and figure of the paper's evaluation is a
// registered campaign scenario: NewScenarioRegistry returns them, a Plan
// passed to its Execute runs them, and a Spec's Describe lists what its
// default grid point emits (EXPERIMENTS.md maps each figure to its
// scenario).
//
//	tb := wifi.NewTestbed(wifi.TestbedConfig{
//	    Scheme:   wifi.SchemeAirtimeFQ,
//	    Stations: wifi.DefaultStations(),
//	})
//	for _, st := range tb.Stations() {
//	    tb.DownloadUDP(st, 50e6)
//	}
//	tb.Run(10 * wifi.Second)
//	fmt.Println(tb.AirtimeShares())
package wifi

import (
	"repro/internal/channel"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/minstrel"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Scheme selects the queue-management configuration of the access point.
// The five paper schemes below are always registered; further schemes
// come from RegisterScheme (see compose.go) and resolve by name through
// SchemeByName or ParseScheme.
type Scheme = mac.Scheme

// The five pre-registered paper schemes, in the paper's presentation
// order (plus the DTT comparison baseline).
const (
	// SchemeFIFO is the unmodified stack: a 1000-packet PFIFO qdisc above
	// unmanaged per-TID driver FIFOs.
	SchemeFIFO = mac.SchemeFIFO
	// SchemeFQCoDel replaces the qdisc with FQ-CoDel (RFC 8290), leaving
	// the driver queues untouched.
	SchemeFQCoDel = mac.SchemeFQCoDel
	// SchemeFQMAC is the paper's §3.1: the qdisc layer is bypassed and
	// queueing moves into the integrated per-TID FQ-CoDel structure.
	SchemeFQMAC = mac.SchemeFQMAC
	// SchemeAirtimeFQ is §3.1 + §3.2: the integrated structure plus the
	// deficit airtime-fairness scheduler.
	SchemeAirtimeFQ = mac.SchemeAirtimeFQ
	// SchemeDTT swaps the airtime scheduler for the deficit transmission
	// time scheduler of Garroppo et al. — the closest prior work, kept as
	// a comparison baseline.
	SchemeDTT = mac.SchemeDTT
)

// Schemes lists the four configurations of the paper's §4 evaluation.
// AllSchemes covers every registered scheme, including the Airtime-RR
// and Weighted-Airtime extensions.
var Schemes = mac.Schemes

// The extension schemes registered by the experiment layer: the
// round-robin ablation and the weighted airtime policy knob.
var (
	SchemeAirtimeRR       = exp.SchemeAirtimeRR
	SchemeWeightedAirtime = exp.SchemeWeightedAirtime
)

// Time re-exports the simulator's nanosecond time base.
type Time = sim.Time

// Convenient durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Rate is a PHY transmission rate.
type Rate = phy.Rate

// MCS returns an 802.11n HT20 rate (index 0-15, optionally short guard
// interval). The paper's fast stations use MCS(15, true) = 144.4 Mbps; the
// slow station MCS(0, true) = 7.2 Mbps.
func MCS(index int, shortGI bool) Rate { return phy.MCS(index, shortGI) }

// LegacyRate returns a pre-11n rate (e.g. 1 Mbps DSSS), which cannot
// aggregate — the slow client of the paper's 30-station test.
func LegacyRate(mbps float64) Rate { return phy.Legacy(mbps) }

// StationSpec describes one wireless client.
type StationSpec = exp.StationSpec

// DefaultStations returns the paper's basic setup: two fast stations
// (MCS15) and one slow station (MCS0).
func DefaultStations() []StationSpec { return exp.DefaultStations() }

// FourStations adds the extra fast station used by the sparse-station and
// VoIP experiments.
func FourStations() []StationSpec { return exp.FourStations() }

// TestbedConfig configures a testbed. It is the experiment layer's
// NetConfig — one configuration path from the facade down to the
// assembled testbed: Seed, Scheme, Stations, WiredDelay, per-station
// airtime Weights, and the AP / StationMAC parameter overrides
// (aggregation caps, CoDel thresholds, airtime quantum, MPDU loss).
type TestbedConfig = exp.NetConfig

// Testbed is an assembled simulation of the paper's evaluation setup.
type Testbed struct {
	net *exp.Net
	rt  *exp.Runtime
}

// Station is one wireless client of the testbed.
type Station = exp.Station

// NewTestbed builds a testbed.
func NewTestbed(cfg TestbedConfig) *Testbed {
	n := exp.NewNet(cfg)
	return &Testbed{net: n, rt: exp.NewRuntime(n)}
}

// Stations returns the wireless clients in creation order.
func (t *Testbed) Stations() []*Station { return t.net.Stations }

// Run advances the simulation to the given absolute virtual time.
func (t *Testbed) Run(until Time) { t.net.Run(until) }

// Now reports the current virtual time.
func (t *Testbed) Now() Time { return t.net.Sim.Now() }

// DownloadTCP starts a bulk TCP download from the server to st and
// returns a handle whose Received function reports delivered bytes.
func (t *Testbed) DownloadTCP(st *Station) (received func() int64) {
	conn := t.net.DownloadTCP(st, pkt.ACBE)
	return conn.Server().TotalReceived
}

// UploadTCP starts a bulk TCP upload from st to the server.
func (t *Testbed) UploadTCP(st *Station) (received func() int64) {
	conn := t.net.UploadTCP(st, pkt.ACBE)
	return conn.Server().TotalReceived
}

// DownloadUDP starts a UDP constant-bitrate flood toward st and returns
// the station-side sink.
func (t *Testbed) DownloadUDP(st *Station, rateBps float64) *traffic.UDPSink {
	_, sink := t.net.DownloadUDP(st, rateBps, pkt.ACBE)
	return sink
}

// Ping starts an ICMP echo stream from the server to st; RTT samples
// accumulate in the returned pinger.
func (t *Testbed) Ping(st *Station, interval Time, id int) *traffic.Pinger {
	return t.net.Ping(st, interval, id)
}

// VoIP starts a voice stream toward st (voice = true marks it VO) and
// returns the sink, whose MOS method scores the call.
func (t *Testbed) VoIP(st *Station, voQueue bool) *traffic.VoIPSink {
	ac := pkt.ACBE
	if voQueue {
		ac = pkt.ACVO
	}
	_, sink := t.net.VoIPDown(st, ac)
	return sink
}

// Web creates a web client at st; call Start on it to begin fetching.
func (t *Testbed) Web(st *Station, page traffic.WebPage) *traffic.WebClient {
	return t.net.Web(st, page)
}

// Attach attaches a composable workload (see workload.go: TCPDownload,
// UDPDownload, VoIPCall, WebBrowsing, ICMPPings) to its selected
// stations immediately. The workload publishes its measurement surfaces
// into the testbed's runtime, where probes — and the Runtime's
// Shares/Goodputs accessors — can observe it:
//
//	tb.Attach(wifi.UDPDownload(50e6))
//	tb.Run(2 * wifi.Second) // let the bulk load settle
//	tb.Attach(wifi.VoIPCall(true).On(wifi.StationsNamed("slow")))
//	tb.Arm() // start the measurement window
//	tb.Run(12 * wifi.Second)
//	m := tb.Collect(wifi.ProbePerStation(wifi.ShareCol("share-")))
func (t *Testbed) Attach(w *Workload) { t.rt.Attach(w) }

// Arm starts the measurement window: byte, airtime and aggregation
// counters are snapshotted, so share/goodput probes report deltas from
// this instant. Sample-accumulating surfaces (ping RTTs, page-load
// times, the call score) cover a workload's whole attached lifetime —
// attach those workloads after warmup, as in the example above, when
// only measurement-window samples should count (campaign Specs do this
// via PhaseMeasure). Re-arming starts a fresh window.
func (t *Testbed) Arm() { t.rt.Arm() }

// Collect runs the given probes over the measurement window and returns
// their emitted metrics.
func (t *Testbed) Collect(probes ...Probe) *Metrics {
	m := NewMetrics()
	for _, p := range probes {
		p.Collect(m, t.rt)
	}
	return m
}

// Runtime exposes the workload/probe fabric for raw window readings
// (per-station goodput, airtime deltas, RTT samples).
func (t *Testbed) Runtime() *exp.Runtime { return t.rt }

// AirtimeShares returns each station's share of the airtime consumed so
// far (TX + RX, as accounted at the access point).
func (t *Testbed) AirtimeShares() []float64 {
	raw := make([]float64, len(t.net.Stations))
	for i, st := range t.net.Stations {
		raw[i] = st.APView.Airtime().Seconds()
	}
	return stats.Shares(raw)
}

// JainIndex returns Jain's fairness index over the stations' airtime.
func (t *Testbed) JainIndex() float64 {
	raw := make([]float64, len(t.net.Stations))
	for i, st := range t.net.Stations {
		raw[i] = st.APView.Airtime().Seconds()
	}
	return stats.JainIndex(raw)
}

// EnableAutoRate attaches a link-quality model at the given SNR and a
// Minstrel-style rate controller to st. The returned controller exposes
// the current rate and throughput estimate; the channel model can be
// retuned via st.APView.Channel.Set (mobility).
func (t *Testbed) EnableAutoRate(st *Station, snrDB float64, startMCS int) *minstrel.Controller {
	return t.net.AP.EnableAutoRate(st.APView, channel.New(snrDB), startMCS)
}

// WebPage describes a page for the web client: a request count and a
// total transfer size.
type WebPage = traffic.WebPage

// Pages available to the web client (the paper's §4.2.2 workloads).
var (
	SmallPage = traffic.SmallPage
	LargePage = traffic.LargePage
)
