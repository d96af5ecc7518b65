// Package campaign is the parallel experiment-orchestration engine: named,
// parameterisable scenarios register into a Registry; a Plan selects
// scenarios, expands their parameter axes into a grid, and the executor
// shards the (scenario, point, repetition) matrix across a worker pool.
//
// Every run owns its own simulator world, so runs are embarrassingly
// parallel. Per-run seeds derive deterministically from the job's
// coordinates (base seed, scenario name, point index, repetition), and
// aggregation folds repetition results in repetition order, so a
// campaign's output is byte-identical regardless of worker count or
// completion order.
package campaign

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Axis is one parameter dimension of a scenario: a name and the ordered
// values the default grid sweeps. A Plan may override the values.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Ctx is everything a scenario run receives: the derived seed, the
// repetition index, the measurement timing, and the resolved parameter
// assignment for this grid point.
type Ctx struct {
	Seed     uint64
	Rep      int
	Duration sim.Time
	Warmup   sim.Time

	params map[string]string
}

// Param returns the value assigned to the named axis at this grid point.
// It panics on an unknown name — scenario code asking for an axis it did
// not declare is a programming error.
func (c Ctx) Param(name string) string {
	v, ok := c.params[name]
	if !ok {
		panic(fmt.Sprintf("campaign: scenario queried undeclared axis %q", name))
	}
	return v
}

// Scenario is one registered experiment: a parameter grid plus a function
// executing a single repetition at a single grid point.
type Scenario struct {
	Name string
	Desc string
	Axes []Axis

	// Run executes one repetition and returns its metrics. It must be
	// safe for concurrent invocation (each call builds its own world) and
	// must derive all randomness from ctx.Seed.
	Run func(ctx Ctx) (*Metrics, error)
}

// Registry holds scenarios in registration order.
type Registry struct {
	scenarios []*Scenario
	byName    map[string]*Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Scenario)}
}

// Register adds a scenario. Duplicate names and nil Run functions are
// programming errors and panic.
func (r *Registry) Register(s *Scenario) {
	if s.Run == nil {
		panic(fmt.Sprintf("campaign: scenario %q has no Run function", s.Name))
	}
	if _, dup := r.byName[s.Name]; dup {
		panic(fmt.Sprintf("campaign: duplicate scenario %q", s.Name))
	}
	r.byName[s.Name] = s
	r.scenarios = append(r.scenarios, s)
}

// Scenarios lists registered scenarios in registration order.
func (r *Registry) Scenarios() []*Scenario { return r.scenarios }

// Get returns the named scenario, or nil.
func (r *Registry) Get(name string) *Scenario { return r.byName[name] }

// Names lists registered scenario names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.scenarios))
	for i, s := range r.scenarios {
		out[i] = s.Name
	}
	return out
}

// Metrics is the typed result of one repetition: named scalar
// observations plus named sample distributions, in insertion order.
type Metrics struct {
	scalars     []scalar
	samples     []namedSample
	scalarIndex map[string]int
	sampleIndex map[string]int
}

type scalar struct {
	name  string
	value float64
}

type namedSample struct {
	name   string
	sample *stats.Sample
}

// NewMetrics returns an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		scalarIndex: make(map[string]int),
		sampleIndex: make(map[string]int),
	}
}

// Add records a scalar observation. Re-adding a name overwrites it.
func (m *Metrics) Add(name string, v float64) {
	if i, ok := m.scalarIndex[name]; ok {
		m.scalars[i].value = v
		return
	}
	m.scalarIndex[name] = len(m.scalars)
	m.scalars = append(m.scalars, scalar{name, v})
}

// AddSample records a distribution. The sample is referenced, not copied.
func (m *Metrics) AddSample(name string, s *stats.Sample) {
	if i, ok := m.sampleIndex[name]; ok {
		m.samples[i].sample = s
		return
	}
	m.sampleIndex[name] = len(m.samples)
	m.samples = append(m.samples, namedSample{name, s})
}

// Names lists the recorded names, scalars then distributions, each in
// insertion order: the order an artifact cell lists them in.
func (m *Metrics) Names() []string {
	names := make([]string, 0, len(m.scalars)+len(m.samples))
	for _, s := range m.scalars {
		names = append(names, s.name)
	}
	for _, s := range m.samples {
		names = append(names, s.name)
	}
	return names
}

// Scalar returns a recorded scalar and whether it exists.
func (m *Metrics) Scalar(name string) (float64, bool) {
	i, ok := m.scalarIndex[name]
	if !ok {
		return 0, false
	}
	return m.scalars[i].value, true
}

// Sample returns a recorded distribution, or nil if the name is unknown.
func (m *Metrics) Sample(name string) *stats.Sample {
	i, ok := m.sampleIndex[name]
	if !ok {
		return nil
	}
	return m.samples[i].sample
}

// expand returns the cartesian product of the scenario's axes (after
// applying overrides), as ordered value tuples. A scenario with no axes
// has exactly one (empty) point. Overrides naming axes the scenario does
// not declare are ignored here; Execute validates them campaign-wide.
func expand(axes []Axis, overrides map[string][]string) ([][]string, error) {
	points := [][]string{nil}
	for _, a := range axes {
		values := a.Values
		if ov, ok := overrides[a.Name]; ok {
			values = ov
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("axis %q has no values", a.Name)
		}
		next := make([][]string, 0, len(points)*len(values))
		for _, p := range points {
			for _, v := range values {
				q := make([]string, len(p)+1)
				copy(q, p)
				q[len(p)] = v
				next = append(next, q)
			}
		}
		points = next
	}
	return points, nil
}
