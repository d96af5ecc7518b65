package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
)

// A Spec is a declarative experiment definition: a parameter grid plus a
// builder that resolves one grid point into a concrete Instance —
// stations × workloads × probes. One generic runner executes any
// Instance on the campaign engine, so defining a new experiment means
// composing existing workloads and probes, not writing a runner.
//
// Every paper experiment is a Spec (see PaperSpecs); NewRegistry
// registers them all as campaign scenarios, and Describe reports what
// one builds and emits.
type Spec struct {
	Name string
	Desc string
	Axes []campaign.Axis

	// Build resolves a grid point's parameters into the experiment
	// instance. It must validate parameters and return an error (not
	// panic) on bad values.
	Build func(p Params) (*Instance, error)
}

// Instance is one fully-resolved experiment composition, ready to run.
type Instance struct {
	// Net configures the testbed (Seed is overwritten per repetition).
	Net NetConfig
	// Workloads attach in station-major order within their phase.
	Workloads []*Workload
	// Probes emit metrics in list order when the run ends.
	Probes []Probe
}

// Execute runs one repetition of the instance on its own simulator
// world, seeded with ctx.Seed: attach start-phase workloads, warm up
// for ctx.Warmup, attach measure-phase workloads, arm the probes'
// measurement window, run the measured ctx.Duration, collect. It
// returns the emitted metrics and the runtime for callers that want raw
// window values beyond the emitted metrics. The world stays intact; the
// campaign runner (Scenario) releases its packet memory afterwards.
func (inst *Instance) Execute(ctx campaign.Ctx) (*campaign.Metrics, *Runtime) {
	cfg := inst.Net
	cfg.Seed = ctx.Seed
	return inst.run(BuildWorld(cfg), ctx)
}

// run is Execute on a world already built from inst.Net with ctx.Seed.
func (inst *Instance) run(w *World, ctx campaign.Ctx) (*campaign.Metrics, *Runtime) {
	rt := NewRuntime(w)
	rt.AttachPhase(inst.Workloads, PhaseStart)
	w.Run(ctx.Warmup)
	rt.AttachPhase(inst.Workloads, PhaseMeasure)
	rt.Arm()
	w.Run(ctx.Warmup + ctx.Duration)
	m := campaign.NewMetrics()
	for _, p := range inst.Probes {
		p.Collect(m, rt)
	}
	return m, rt
}

// Defaults returns the Spec's default grid point: the first value of
// every axis.
func (s *Spec) Defaults() Params {
	p := make(Params, len(s.Axes))
	for _, a := range s.Axes {
		if len(a.Values) > 0 {
			p[a.Name] = a.Values[0]
		}
	}
	return p
}

// Scenario wraps the Spec into a campaign scenario running the generic
// runner.
func (s *Spec) Scenario() *campaign.Scenario {
	return &campaign.Scenario{
		Name: s.Name,
		Desc: s.Desc,
		Axes: s.Axes,
		Run: func(ctx campaign.Ctx) (*campaign.Metrics, error) {
			inst, err := s.Build(paramsFromCtx(ctx, s.Axes))
			if err != nil {
				return nil, err
			}
			m, rt := inst.Execute(ctx)
			// The probes have read the world and nothing else will:
			// hand its packet memory to the next run.
			pkt.PoolOf(rt.World().Sim).Release()
			return m, nil
		},
	}
}

// Description is what a Spec's default grid point builds and emits.
type Description struct {
	// Stations lists the world's station names in world order.
	Stations []string
	// PerBSS counts each BSS's stations; nil for the single-BSS
	// Stations form.
	PerBSS []int
	// Workloads are the instance's traffic attachments.
	Workloads []*Workload
	// Metrics lists the emitted metric names in artifact order.
	Metrics []string
}

// Describe builds the Spec's default grid point and runs it through
// Execute for a 1 ns window, so the schema it reports is what the
// probes emit rather than a second, declared copy of it.
func (s *Spec) Describe() (*Description, error) {
	inst, err := s.Build(s.Defaults())
	if err != nil {
		return nil, err
	}
	m, rt := inst.Execute(campaign.Ctx{Seed: 1, Duration: 1})
	w := rt.World()
	d := &Description{Stations: w.StationNames(), Workloads: inst.Workloads, Metrics: m.Names()}
	if len(inst.Net.BSSs) > 0 {
		for _, cell := range w.Cells {
			d.PerBSS = append(d.PerBSS, len(cell.Stations))
		}
	}
	return d, nil
}

// Register adds the Spec to a campaign registry.
func (s *Spec) Register(r *campaign.Registry) { r.Register(s.Scenario()) }

// Params is a resolved parameter assignment (axis name → value).
type Params map[string]string

// paramsFromCtx extracts the declared axes' values from an engine
// context.
func paramsFromCtx(ctx campaign.Ctx, axes []campaign.Axis) Params {
	p := make(Params, len(axes))
	for _, a := range axes {
		p[a.Name] = ctx.Param(a.Name)
	}
	return p
}

// Str returns the named parameter's value ("" if absent).
func (p Params) Str(name string) string { return p[name] }

// Scheme resolves the conventional "scheme" parameter through the
// transmit-path registry.
func (p Params) Scheme() (mac.Scheme, error) { return ParseScheme(p["scheme"]) }

// OneOf returns the named parameter's value if it is one of values,
// and an error naming the accepted values otherwise.
func (p Params) OneOf(name string, values ...string) (string, error) {
	v := p[name]
	for _, ok := range values {
		if v == ok {
			return v, nil
		}
	}
	return "", fmt.Errorf("unknown %s %q (want %s)", name, v, strings.Join(values, " or "))
}

// Float parses the named parameter as a float64.
func (p Params) Float(name string) (float64, error) {
	v, err := strconv.ParseFloat(p[name], 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return v, nil
}

// Int parses the named parameter as an int.
func (p Params) Int(name string) (int, error) {
	v, err := strconv.Atoi(p[name])
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return v, nil
}
