package exp

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/stats"
)

// A Probe is a declarative metric collector: it reads the measurement
// surfaces workloads published into the run's Runtime and emits named
// metrics into campaign.Metrics when the run ends. Collect is the only
// place a metric is named; Spec.Describe reads a scenario's schema from
// what a short run of its default point emits.
//
// Emission order is significant — campaign artifacts preserve metric
// insertion order — so a Spec's probe list (and, inside PerStation, its
// column list) fixes the artifact layout.
type Probe interface {
	// Collect computes and emits the probe's metrics. It runs after the
	// measured interval ends.
	Collect(m *campaign.Metrics, rt *Runtime)
}

// resolveIdx maps a possibly-negative station index (-1 = last) into
// [0, n).
func resolveIdx(idx, n int) int {
	if idx < 0 {
		idx += n
	}
	return idx
}

// --- Per-station columns -------------------------------------------------

// StationCol is one per-station metric column of a PerStation probe:
// a name prefix (the station name is appended) and a value extractor.
type StationCol struct {
	Prefix string
	value  func(rt *Runtime, i int) float64
}

// ShareCol emits each station's airtime share over the window.
func ShareCol(prefix string) StationCol {
	return StationCol{Prefix: prefix, value: func(rt *Runtime, i int) float64 {
		return rt.Shares()[i]
	}}
}

// GoodputCol emits each station's goodput over the window, in Mbps.
func GoodputCol(prefix string) StationCol {
	return StationCol{Prefix: prefix, value: func(rt *Runtime, i int) float64 {
		return rt.Goodputs()[i] / 1e6
	}}
}

// AggCol emits each station's mean A-MPDU size over the window.
func AggCol(prefix string) StationCol {
	return StationCol{Prefix: prefix, value: func(rt *Runtime, i int) float64 {
		return rt.AggMean(i)
	}}
}

// PerStation emits the given columns station-major: for each station in
// creation order, one metric per column. This interleaving is the
// layout the paper experiments' artifacts use.
func PerStation(cols ...StationCol) Probe { return perStation{cols} }

type perStation struct{ cols []StationCol }

func (p perStation) Collect(m *campaign.Metrics, rt *Runtime) {
	for i, st := range rt.w.Stations {
		for _, c := range p.cols {
			m.Add(c.Prefix+st.Name, c.value(rt, i))
		}
	}
}

// --- Aggregate scalar probes ---------------------------------------------

// TotalGoodput sums every station's goodput (in bits/s, station order)
// and emits the total in Mbps.
func TotalGoodput(name string) Probe { return totalGoodput{name} }

type totalGoodput struct{ name string }

func (p totalGoodput) Collect(m *campaign.Metrics, rt *Runtime) {
	var total float64
	for _, gp := range rt.Goodputs() {
		total += gp
	}
	m.Add(p.name, total/1e6)
}

// AvgGoodput averages the stations' per-station goodput in Mbps.
func AvgGoodput(name string) Probe { return avgGoodput{name} }

type avgGoodput struct{ name string }

func (p avgGoodput) Collect(m *campaign.Metrics, rt *Runtime) {
	gps := rt.Goodputs()
	var sum float64
	for _, gp := range gps {
		sum += gp / 1e6
	}
	m.Add(p.name, sum/float64(len(gps)))
}

// SumRxMbps sums the stations' received bytes over the window (integer
// fold) and emits the total rate in Mbps. It differs from TotalGoodput
// only in fold arithmetic; the multi-flow experiments (scale, VoIP)
// historically fold bytes, the UDP ones fold rates.
func SumRxMbps(name string) Probe { return sumRxMbps{name} }

type sumRxMbps struct{ name string }

func (p sumRxMbps) Collect(m *campaign.Metrics, rt *Runtime) {
	var total int64
	for _, d := range rt.RxDeltas() {
		total += d
	}
	m.Add(p.name, float64(total)*8/rt.Window()/1e6)
}

// Jain emits Jain's fairness index over the stations' window airtime.
func Jain(name string) Probe { return jainProbe{name} }

type jainProbe struct{ name string }

func (p jainProbe) Collect(m *campaign.Metrics, rt *Runtime) {
	m.Add(p.name, stats.JainIndex(rt.AirDeltas()))
}

// IndexedShares emits every station's airtime share under
// fmt.Sprintf(format, i) names (e.g. "share-%d").
func IndexedShares(format string) Probe { return indexedShares{format} }

type indexedShares struct{ format string }

func (p indexedShares) Collect(m *campaign.Metrics, rt *Runtime) {
	for i, s := range rt.Shares() {
		m.Add(fmt.Sprintf(p.format, i), s)
	}
}

// ShareAt emits one station's airtime share (negative index from end).
func ShareAt(idx int, name string) Probe { return shareAt{idx, name} }

type shareAt struct {
	idx  int
	name string
}

func (p shareAt) Collect(m *campaign.Metrics, rt *Runtime) {
	shares := rt.Shares()
	m.Add(p.name, shares[resolveIdx(p.idx, len(shares))])
}

// SharesDist emits the airtime shares of stations [lo, hi] (inclusive,
// negative indices from the end) as one distribution — the scale
// experiment's per-fast-station share spread.
func SharesDist(lo, hi int, name string) Probe { return sharesDist{lo, hi, name} }

type sharesDist struct {
	lo, hi int
	name   string
}

func (p sharesDist) Collect(m *campaign.Metrics, rt *Runtime) {
	shares := rt.Shares()
	lo, hi := resolveIdx(p.lo, len(shares)), resolveIdx(p.hi, len(shares))
	s := new(stats.Sample)
	for i := lo; i <= hi; i++ {
		s.Add(shares[i])
	}
	m.AddSample(p.name, s)
}

// --- Per-BSS probes ------------------------------------------------------
//
// Multi-BSS worlds measure two fairness layers: how evenly the medium
// splits between co-channel BSSs (OBSS occupancy, a medium property) and
// how fair each AP's scheduler is to its own stations (intra-BSS
// airtime, the paper's metric). The probes below emit both, one metric
// per BSS of the world they read.

// BSSShares emits each BSS's share of the medium busy time consumed over
// the window, under fmt.Sprintf(format, b) names (e.g. "bss-share-%d").
func BSSShares(format string) Probe { return bssShares{format} }

type bssShares struct{ format string }

func (p bssShares) Collect(m *campaign.Metrics, rt *Runtime) {
	for b, s := range stats.Shares(rt.BSSBusyDeltas()) {
		m.Add(fmt.Sprintf(p.format, b), s)
	}
}

// OBSSJain emits Jain's fairness index across the BSSs' busy-time
// shares — 1.0 means the co-channel APs split the medium evenly.
func OBSSJain(name string) Probe { return obssJain{name} }

type obssJain struct{ name string }

func (p obssJain) Collect(m *campaign.Metrics, rt *Runtime) {
	m.Add(p.name, stats.JainIndex(rt.BSSBusyDeltas()))
}

// PerBSSJain emits Jain's fairness index over each BSS's own stations'
// window airtime, under fmt.Sprintf(format, b) names — the paper's
// fairness metric applied inside every cell.
func PerBSSJain(format string) Probe { return perBSSJain{format} }

type perBSSJain struct{ format string }

func (p perBSSJain) Collect(m *campaign.Metrics, rt *Runtime) {
	air := rt.AirDeltas()
	for b := 0; b < rt.World().BSSCount(); b++ {
		lo, hi := rt.World().BSSRange(b)
		m.Add(fmt.Sprintf(p.format, b), stats.JainIndex(air[lo:hi]))
	}
}

// PerBSSRTT merges each BSS's stations' ping RTT samples into one
// distribution per BSS, under fmt.Sprintf(format, b) names.
func PerBSSRTT(format string) Probe { return perBSSRTT{format} }

type perBSSRTT struct{ format string }

func (p perBSSRTT) Collect(m *campaign.Metrics, rt *Runtime) {
	for b := 0; b < rt.World().BSSCount(); b++ {
		lo, hi := rt.World().BSSRange(b)
		s := new(stats.Sample)
		for i := lo; i < hi; i++ {
			rt.RTT(i, s)
		}
		m.AddSample(fmt.Sprintf(p.format, b), s)
	}
}

// --- Distribution probes -------------------------------------------------

// RTTGroup maps stations (by name) onto one merged RTT distribution.
type RTTGroup struct {
	Name  string
	Match func(stationName string) bool
}

// RTTByGroup merges every station's ping RTT samples into the first
// group whose predicate matches its name, and emits each group's
// distribution in declaration order (empty groups included, keeping the
// metric set stable).
func RTTByGroup(groups ...RTTGroup) Probe { return rttByGroup{groups} }

type rttByGroup struct{ groups []RTTGroup }

func (p rttByGroup) Collect(m *campaign.Metrics, rt *Runtime) {
	merged := make([]*stats.Sample, len(p.groups))
	for gi := range p.groups {
		merged[gi] = new(stats.Sample)
	}
	for i, st := range rt.w.Stations {
		for gi, g := range p.groups {
			if g.Match == nil || g.Match(st.Name) {
				rt.RTT(i, merged[gi])
				break
			}
		}
	}
	for gi, g := range p.groups {
		m.AddSample(g.Name, merged[gi])
	}
}

// FastSlowRTT is the paper's standard latency split: stations whose
// name starts with "fast" merge into fastName, everyone else into
// slowName.
func FastSlowRTT(fastName, slowName string) Probe {
	return RTTByGroup(
		RTTGroup{Name: fastName, Match: func(n string) bool { return strings.HasPrefix(n, "fast") }},
		RTTGroup{Name: slowName},
	)
}

// RTTAt emits one station's merged ping RTT distribution (negative
// index from the end).
func RTTAt(idx int, name string) Probe { return rttAt{idx, name} }

type rttAt struct {
	idx  int
	name string
}

func (p rttAt) Collect(m *campaign.Metrics, rt *Runtime) {
	s := new(stats.Sample)
	rt.RTT(resolveIdx(p.idx, len(rt.w.Stations)), s)
	m.AddSample(p.name, s)
}

// MOS emits the E-model score of the run's voice call (the first call
// in station order; 0 if no VoIP workload attached).
func MOS(name string) Probe { return mosProbe{name} }

type mosProbe struct{ name string }

func (p mosProbe) Collect(m *campaign.Metrics, rt *Runtime) {
	mos, _ := rt.MOS()
	m.Add(p.name, mos)
}

// PLT merges every browsing station's page-load times into one
// distribution.
func PLT(name string) Probe { return pltProbe{name} }

type pltProbe struct{ name string }

func (p pltProbe) Collect(m *campaign.Metrics, rt *Runtime) {
	s := new(stats.Sample)
	for i := range rt.w.Stations {
		rt.PLT(i, s)
	}
	m.AddSample(p.name, s)
}

// Table1 feeds the measured per-station aggregation levels into the
// §2.2.1 analytical model and emits, per station, the paper's Table 1
// row — the aggregation level fed to the model, the model's airtime
// share T(i), base rate R(n,l,r) and predicted rate R(i), and the
// measured throughput — plus the model and measured totals, one block
// per scheme.
func Table1(fair bool) Probe { return table1Probe{fair} }

type table1Probe struct{ fair bool }

func (p table1Probe) Collect(m *campaign.Metrics, rt *Runtime) {
	gps := rt.Goodputs()
	params := make([]model.StationParams, len(rt.w.Stations))
	for i, st := range rt.w.Stations {
		agg := rt.AggMean(i)
		if agg < 1 {
			agg = 1
		}
		params[i] = model.StationParams{Name: st.Name, AggSize: agg, PktLen: 1500, Rate: st.Rate}
	}
	var modelTot, measTot float64
	for i, pred := range model.Predict(params, p.fair) {
		rate := pred.Rate / 1e6
		meas := gps[i] / 1e6
		m.Add("aggr-"+pred.Name, params[i].AggSize)
		m.Add("model-share-"+pred.Name, pred.AirtimeShare)
		m.Add("base-mbps-"+pred.Name, pred.BaseRate/1e6)
		m.Add("model-mbps-"+pred.Name, rate)
		m.Add("measured-mbps-"+pred.Name, meas)
		modelTot += rate
		measTot += meas
	}
	m.Add("model-total-mbps", modelTot)
	m.Add("measured-total-mbps", measTot)
}
