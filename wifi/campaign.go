package wifi

import (
	"repro/internal/campaign"
	"repro/internal/exp"
)

// The campaign engine shards experiment matrices — scenario × parameter
// grid × repetition — across a worker pool, with per-run deterministic
// seeds, so campaign results are byte-identical for any worker count.
// See EXPERIMENTS.md for the scenario catalogue and cmd/campaign for the
// CLI.

// Campaign engine types.
type (
	// Scenario is a named, parameterisable experiment registered with a
	// Registry.
	Scenario = campaign.Scenario
	// Axis is one parameter dimension of a scenario's grid.
	Axis = campaign.Axis
	// Plan selects scenarios, overrides axes and sizes a campaign.
	Plan = campaign.Plan
	// CampaignResult holds the aggregated cells of an executed campaign.
	CampaignResult = campaign.Result
	// Registry holds registered scenarios and executes plans.
	Registry = campaign.Registry
	// Metrics is the scalar/distribution result set of a single run.
	Metrics = campaign.Metrics
)

// NewMetrics returns an empty metric set (for custom probes).
func NewMetrics() *Metrics { return campaign.NewMetrics() }

// NewScenarioRegistry returns a registry with every paper experiment
// registered as a parameterisable campaign scenario.
func NewScenarioRegistry() *Registry { return exp.NewRegistry() }

// DeriveSeed is the engine's deterministic per-run seed derivation,
// exported for tools that reproduce a single campaign run in isolation.
func DeriveSeed(base uint64, scenario string, point, rep int) uint64 {
	return campaign.DeriveSeed(base, scenario, point, rep)
}

// ParseScheme resolves a registered scheme name ("FIFO", "FQ-CoDel",
// "FQ-MAC", "Airtime", "DTT", "Airtime-RR", "Weighted-Airtime", or any
// scheme added via RegisterScheme) to its Scheme value.
func ParseScheme(name string) (Scheme, error) { return exp.ParseScheme(name) }
