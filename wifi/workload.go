package wifi

import (
	"repro/internal/exp"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// The experiment-definition API is declarative: a Workload is a named,
// parameterised traffic attachment that knows how to attach itself
// between the wired server and its selected stations; a Probe is a
// metric collector reading the surfaces workloads publish; a Spec
// composes stations × workloads × probes over a parameter grid and runs
// as a campaign scenario through the generic runner. All nine paper
// experiments are Specs (PaperSpecs); new scenarios are compositions,
// not new runners:
//
//	spec := &wifi.Spec{
//	    Name: "voip-vs-bulk",
//	    Axes: []wifi.Axis{{Name: "scheme", Values: wifi.SchemeNames()}},
//	    Build: func(p wifi.SpecParams) (*wifi.SpecInstance, error) {
//	        scheme, err := p.Scheme()
//	        if err != nil {
//	            return nil, err
//	        }
//	        return &wifi.SpecInstance{
//	            Net: wifi.TestbedConfig{Scheme: scheme, Stations: wifi.FourStations()},
//	            Workloads: []*wifi.Workload{
//	                wifi.TCPDownload(),
//	                wifi.VoIPCall(true).On(wifi.StationsNamed("slow")),
//	            },
//	            Probes: []wifi.Probe{wifi.MOSProbe("mos"), wifi.JainProbe("jain")},
//	        }, nil
//	    },
//	}
//	reg := wifi.NewScenarioRegistry()
//	spec.Register(reg)
//	d, err := spec.Describe() // d.Metrics: "mos", "jain"
//
// Workloads also attach imperatively to a live Testbed via
// Testbed.Attach.

// Declarative experiment-definition types.
type (
	// Workload is a composable traffic attachment.
	Workload = exp.Workload
	// WorkloadPhase is a workload's attachment time (start or measure).
	WorkloadPhase = exp.Phase
	// StationTarget selects the stations a workload attaches to.
	StationTarget = exp.Target
	// Probe is a declarative metric collector.
	Probe = exp.Probe
	// StationCol is a per-station metric column for ProbePerStation.
	StationCol = exp.StationCol
	// RTTGroup maps stations onto one merged latency distribution.
	RTTGroup = exp.RTTGroup
	// Spec is a declarative experiment definition.
	Spec = exp.Spec
	// SpecInstance is one resolved composition, ready to run.
	SpecInstance = exp.Instance
	// SpecDescription is what Spec.Describe reports: the default grid
	// point's stations, workloads and emitted metric names.
	SpecDescription = exp.Description
	// SpecParams is a resolved grid-point parameter assignment.
	SpecParams = exp.Params
	// TestbedRuntime is the workload/probe fabric of one run.
	TestbedRuntime = exp.Runtime
)

// Workload attachment phases.
const (
	// PhaseStart attaches at simulation time zero, before warmup.
	PhaseStart = exp.PhaseStart
	// PhaseMeasure attaches at the start of the measured interval.
	PhaseMeasure = exp.PhaseMeasure
)

// PaperSpecs returns the declarative Specs of every paper experiment.
func PaperSpecs() []*Spec { return exp.PaperSpecs() }

// Workload constructors.

// TCPDownload is a persistent bulk TCP download to each selected
// station.
func TCPDownload() *Workload { return exp.TCPDown() }

// TCPUpload is a persistent bulk TCP upload from each selected station.
func TCPUpload() *Workload { return exp.TCPUp() }

// UDPDownload is a constant-bitrate UDP flood to each selected station.
func UDPDownload(rateBps float64) *Workload { return exp.UDPFlood(rateBps) }

// VoIPCall is a G.711 voice stream to each selected station, marked VO
// when voQueue is true (BE otherwise).
func VoIPCall(voQueue bool) *Workload {
	ac := pkt.ACBE
	if voQueue {
		ac = pkt.ACVO
	}
	return exp.VoIPCall(ac)
}

// WebBrowsing is an emulated browser at each selected station fetching
// the given page back to back.
func WebBrowsing(page WebPage) *Workload { return exp.WebBrowse(page) }

// ICMPPings sends periodic pings to each selected station (interval 0 =
// 100 ms).
func ICMPPings(interval Time) *Workload { return exp.Pings(sim.Time(interval)) }

// Station target selectors for Workload.On.
var (
	// AllStations selects every station (the default).
	AllStations = exp.AllStations
	// StationsNamed selects stations by name.
	StationsNamed = exp.StationsNamed
	// FirstStations selects the first k stations.
	FirstStations = exp.FirstStations
	// StationAt selects stations by index (negative = from the end).
	StationAt = exp.StationAt
	// AllButLast selects every station except the last.
	AllButLast = exp.AllButLast
)

// Probe constructors.
var (
	// ProbePerStation emits the given columns station-major.
	ProbePerStation = exp.PerStation
	// ShareCol emits each station's airtime share.
	ShareCol = exp.ShareCol
	// GoodputCol emits each station's goodput in Mbps.
	GoodputCol = exp.GoodputCol
	// AggCol emits each station's mean A-MPDU size.
	AggCol = exp.AggCol
	// TotalGoodputProbe emits the summed station goodput in Mbps.
	TotalGoodputProbe = exp.TotalGoodput
	// AvgGoodputProbe emits the mean per-station goodput in Mbps.
	AvgGoodputProbe = exp.AvgGoodput
	// JainProbe emits Jain's fairness index over window airtime.
	JainProbe = exp.Jain
	// MOSProbe emits the E-model score of the run's voice call.
	MOSProbe = exp.MOS
	// PLTProbe emits the merged page-load-time distribution.
	PLTProbe = exp.PLT
	// RTTProbe emits one station's ping RTT distribution.
	RTTProbe = exp.RTTAt
	// FastSlowRTTProbe splits ping RTTs into fast/slow distributions.
	FastSlowRTTProbe = exp.FastSlowRTT
)
