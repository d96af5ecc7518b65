package mac

import (
	"fmt"
	"strings"

	"repro/internal/sched"
)

// Scheme identifies one of the node's queue-management configurations.
// The set is closed: every value indexes schemeTable, and the zero value
// is SchemeFIFO.
type Scheme int

const (
	// SchemeFIFO is the unmodified stack: a PFIFO qdisc above per-TID
	// driver FIFOs sharing one buffer budget.
	SchemeFIFO Scheme = iota
	// SchemeFQCoDel replaces the qdisc with FQ-CoDel, leaving the driver
	// queues untouched.
	SchemeFQCoDel
	// SchemeFQMAC bypasses the qdisc entirely and queues in the
	// integrated per-TID FQ-CoDel structure of §3.1.
	SchemeFQMAC
	// SchemeAirtimeFQ is SchemeFQMAC plus the §3.2 airtime fairness
	// scheduler.
	SchemeAirtimeFQ
	// SchemeDTT is SchemeFQMAC plus the deficit transmission time
	// scheduler of Garroppo et al. — the closest prior work, included as
	// a comparison baseline for §3.2's accuracy claims.
	SchemeDTT
	// SchemeAirtimeRR is SchemeFQMAC plus a strict round-robin station
	// scheduler. As an ablation between FQ-MAC (no station scheduling)
	// and Airtime (deficit scheduling) it isolates how much of the
	// paper's §5 fairness gain comes from deficit airtime accounting
	// versus mere per-station scheduling: round-robin equalises
	// transmission opportunities, so a slow station still consumes far
	// more than an equal airtime share.
	SchemeAirtimeRR
	// SchemeWeightedAirtime is the paper's airtime scheduler with the
	// per-station weight knob the ath9k implementation exposes: a
	// station's deficit replenishment scales with its weight
	// (Node.SetStationWeight), giving it a proportionally larger or
	// smaller airtime share. With every weight at the default 1 it
	// behaves exactly like SchemeAirtimeFQ.
	SchemeWeightedAirtime

	numSchemes
)

// schemeTable holds each scheme's name and one-line description. Names
// are unique under case folding, as SchemeByName resolves them.
var schemeTable = [numSchemes]struct{ name, desc string }{
	SchemeFIFO:            {"FIFO", "unmodified stack: PFIFO qdisc over unmanaged driver FIFOs"},
	SchemeFQCoDel:         {"FQ-CoDel", "FQ-CoDel qdisc over unmanaged driver FIFOs"},
	SchemeFQMAC:           {"FQ-MAC", "integrated per-TID FQ-CoDel structure (§3.1), no station scheduler"},
	SchemeAirtimeFQ:       {"Airtime", "integrated structure + deficit airtime-fairness scheduler (§3.1 + §3.2)"},
	SchemeDTT:             {"DTT", "integrated structure + deficit transmission time scheduler (Garroppo et al.)"},
	SchemeAirtimeRR:       {"Airtime-RR", "integrated structure + round-robin station scheduler (deficit-accounting ablation)"},
	SchemeWeightedAirtime: {"Weighted-Airtime", "integrated structure + weighted deficit airtime scheduler (ath9k weight knob)"},
}

// Schemes lists the four configurations of the paper's §4 evaluation in
// its presentation order. The DTT baseline and the two ablations are not
// part of this list; AllSchemes covers every scheme.
var Schemes = []Scheme{SchemeFIFO, SchemeFQCoDel, SchemeFQMAC, SchemeAirtimeFQ}

func (s Scheme) valid() bool { return s >= 0 && s < numSchemes }

// String returns the scheme's name, or Scheme(n) for a value outside the
// set.
func (s Scheme) String() string {
	if s.valid() {
		return schemeTable[s].name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Desc returns the scheme's one-line description ("" for a value outside
// the set).
func (s Scheme) Desc() string {
	if s.valid() {
		return schemeTable[s].desc
	}
	return ""
}

// SchemeByName resolves a scheme's name, case-insensitively.
func SchemeByName(name string) (Scheme, bool) {
	for s := range numSchemes {
		if strings.EqualFold(schemeTable[s].name, name) {
			return s, true
		}
	}
	return 0, false
}

// AllSchemes lists every scheme in Scheme order: the five paper
// configurations, then the two ablations.
func AllSchemes() []Scheme {
	out := make([]Scheme, numSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// SchemeNames lists every scheme name in Scheme order.
func SchemeNames() []string {
	out := make([]string, numSchemes)
	for s, e := range schemeTable {
		out[s] = e.name
	}
	return out
}

// newScheduler builds one access category's station scheduler for cfg's
// scheme, or returns nil under the schemes without one: the MAC then
// serves TIDs round-robin at the aggregation step.
func newScheduler(cfg *Config) sched.StationScheduler {
	switch cfg.Scheme {
	case SchemeAirtimeFQ:
		return sched.NewAirtime(cfg.AirtimeQuantum, !cfg.DisableSparse)
	case SchemeDTT:
		return sched.NewDTT(cfg.AirtimeQuantum)
	case SchemeAirtimeRR:
		return sched.NewRoundRobin()
	case SchemeWeightedAirtime:
		return sched.NewWeightedAirtime(cfg.AirtimeQuantum, !cfg.DisableSparse)
	}
	return nil
}
