package mac

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/pkt"
	"repro/internal/sched"
)

// Composition describes the transmit path of one scheme: the queue
// substrate packets wait in, and (optionally) the station scheduler that
// decides which station builds the next aggregate. The per-AC scheduler
// factory runs once per hardware queue of each node, after the node's
// Config has been filled with defaults.
type Composition struct {
	// Desc is a one-line description shown by scheme listings.
	Desc string
	// Queueing selects the node's queue substrate. Required.
	Queueing Queueing
	// Scheduler, when non-nil, builds the per-access-category station
	// scheduler. Nil means unscheduled: the MAC serves TIDs round-robin
	// at the aggregation step, as the baseline schemes do.
	Scheduler func(n *Node, ac pkt.AC) sched.StationScheduler
}

type schemeInfo struct {
	name string
	comp Composition
}

var (
	schemeMu       sync.RWMutex
	schemeRegistry []schemeInfo
	// schemeIndex is keyed by the folded (lowercased) name: lookup and
	// the uniqueness check share one case-insensitivity rule. Display
	// names live in schemeRegistry.
	schemeIndex = map[string]Scheme{}
)

// foldName is the registry's canonical key form of a scheme name.
func foldName(name string) string { return strings.ToLower(name) }

// RegisterScheme adds a named transmit-path composition to the scheme
// registry and returns its Scheme value. Adding a queueing configuration
// is a registration, not a MAC change: any package may compose one of
// the three queue substrates (PFIFOQueueing, FQCoDelQueueing,
// IntegratedQueueing) with any sched.StationScheduler, its own included.
// The five paper schemes are registered at init; names are unique and
// registration order fixes the Scheme values.
func RegisterScheme(name string, comp Composition) Scheme {
	if name == "" {
		panic("mac: RegisterScheme with empty name")
	}
	if comp.Queueing < PFIFOQueueing || comp.Queueing > IntegratedQueueing {
		panic(fmt.Sprintf("mac: scheme %q registered without a queueing substrate", name))
	}
	schemeMu.Lock()
	defer schemeMu.Unlock()
	// Names resolve case-insensitively (SchemeByName), so uniqueness must
	// be case-insensitive too or a late registration could shadow an
	// earlier scheme.
	if prev, dup := schemeIndex[foldName(name)]; dup {
		panic(fmt.Sprintf("mac: duplicate scheme %q (registered as %q)",
			name, schemeRegistry[prev].name))
	}
	id := Scheme(len(schemeRegistry))
	schemeRegistry = append(schemeRegistry, schemeInfo{name: name, comp: comp})
	schemeIndex[foldName(name)] = id
	return id
}

// lookupScheme returns the registration for s, or ok=false.
func lookupScheme(s Scheme) (schemeInfo, bool) {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	if s < 0 || int(s) >= len(schemeRegistry) {
		return schemeInfo{}, false
	}
	return schemeRegistry[s], true
}

// SchemeByName resolves a registered scheme's name, case-insensitively.
func SchemeByName(name string) (Scheme, bool) {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	s, ok := schemeIndex[foldName(name)]
	return s, ok
}

// AllSchemes lists every registered scheme in registration order: the
// five paper configurations first, then anything added via
// RegisterScheme.
func AllSchemes() []Scheme {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	out := make([]Scheme, len(schemeRegistry))
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// SchemeNames lists every registered scheme name in registration order.
func SchemeNames() []string {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	out := make([]string, len(schemeRegistry))
	for i, info := range schemeRegistry {
		out[i] = info.name
	}
	return out
}

// Desc returns the scheme's registered one-line description.
func (s Scheme) Desc() string {
	info, ok := lookupScheme(s)
	if !ok {
		return ""
	}
	return info.comp.Desc
}

// sortedSchemeNames is SchemeNames sorted alphabetically (for error
// messages, where registration order is noise).
func sortedSchemeNames() []string {
	names := SchemeNames()
	sort.Strings(names)
	return names
}

// The five paper schemes register here, in the order that pins their
// Scheme constants.
func init() {
	mustRegister := func(name string, want Scheme, comp Composition) {
		if got := RegisterScheme(name, comp); got != want {
			panic(fmt.Sprintf("mac: scheme %q registered as %d, want %d", name, got, want))
		}
	}
	mustRegister("FIFO", SchemeFIFO, Composition{
		Desc:     "unmodified stack: PFIFO qdisc over unmanaged driver FIFOs",
		Queueing: PFIFOQueueing,
	})
	mustRegister("FQ-CoDel", SchemeFQCoDel, Composition{
		Desc:     "FQ-CoDel qdisc over unmanaged driver FIFOs",
		Queueing: FQCoDelQueueing,
	})
	mustRegister("FQ-MAC", SchemeFQMAC, Composition{
		Desc:     "integrated per-TID FQ-CoDel structure (§3.1), no station scheduler",
		Queueing: IntegratedQueueing,
	})
	mustRegister("Airtime", SchemeAirtimeFQ, Composition{
		Desc:     "integrated structure + deficit airtime-fairness scheduler (§3.1 + §3.2)",
		Queueing: IntegratedQueueing,
		Scheduler: func(n *Node, _ pkt.AC) sched.StationScheduler {
			return sched.NewAirtime(n.cfg.AirtimeQuantum, !n.cfg.DisableSparse)
		},
	})
	mustRegister("DTT", SchemeDTT, Composition{
		Desc:     "integrated structure + deficit transmission time scheduler (Garroppo et al.)",
		Queueing: IntegratedQueueing,
		Scheduler: func(n *Node, _ pkt.AC) sched.StationScheduler {
			return sched.NewDTT(n.cfg.AirtimeQuantum)
		},
	})
}
