package exp

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/mac"
)

// Every paper experiment is a declarative Spec — stations × workloads ×
// probes over a parameter grid — executed by the one generic runner
// (Instance.Execute) on the campaign engine. NewRegistry registers them
// all as named campaign scenarios.

// ParseScheme resolves a scheme's registered name ("FIFO", "FQ-CoDel",
// "FQ-MAC", "Airtime", "DTT", plus anything added via
// mac.RegisterScheme, e.g. "Airtime-RR" and "Weighted-Airtime").
// Matching is case-insensitive.
func ParseScheme(name string) (mac.Scheme, error) {
	if s, ok := mac.SchemeByName(name); ok {
		return s, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (registered: %s)",
		name, strings.Join(mac.SchemeNames(), ", "))
}

func schemeNames(schemes []mac.Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.String()
	}
	return out
}

// PaperSpecs returns the declarative Specs of every paper experiment —
// plus the mixed composite scenario — in the registry's historical
// registration order (seed derivation depends on scenario names only,
// so order is presentational).
func PaperSpecs() []*Spec {
	return []*Spec{
		SpecLatency(),
		SpecUDP(),
		SpecFairness(),
		SpecThroughput(),
		SpecSparse(),
		SpecScale(),
		SpecVoIP(),
		SpecWeb(),
		SpecWeightedUDP(),
		SpecTable1(),
		SpecMixed(),
		SpecDense(),
	}
}

// NewRegistry returns a registry with every paper experiment registered
// as a parameterisable scenario.
func NewRegistry() *campaign.Registry {
	r := campaign.NewRegistry()
	for _, s := range PaperSpecs() {
		s.Register(r)
	}
	return r
}
