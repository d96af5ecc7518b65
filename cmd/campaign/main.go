// campaign drives the parallel experiment-campaign engine from the
// command line: list the registered scenarios, run a selection of them
// across every core, or sweep chosen parameter axes.
//
// Usage:
//
//	campaign list
//	campaign describe udp
//	campaign run  [-s udp -s fairness] [-reps 10] [-dur 30] [-workers 8]
//	              [-out results.json] [-csv results.csv]
//	campaign sweep -s udp -axis scheme=FIFO,Airtime -axis rate-mbps=10,50,100
//
// describe prints a scenario's parameter axes and what its default grid
// point builds and emits — stations, workloads and metric names — read
// from a 1 ns run of that point. run executes the scenarios' default
// grids; sweep is run plus axis overrides. Aggregated output (JSON/CSV
// artifacts and the printed table) is byte-identical for any -workers
// value: per-run seeds derive from job coordinates and aggregation
// folds in matrix order. The same contract extends across the result
// cache: cold, warm-cache and interrupted-then-rerun executions of one
// campaign produce byte-identical artifacts.
//
// Results are cached by default under os.UserCacheDir()/hj17, keyed by
// (scenario, canonicalized params, rep, seed, code fingerprint), where
// the code fingerprint is the SHA-256 of this executable's bytes: rerun
// a campaign and only never-seen cells simulate, and rebuilding after
// an edit recomputes everything. -no-cache opts out and -cache-dir
// relocates the store.
//
// SIGINT interrupts a run gracefully: in-flight cells drain into the
// cache and the process exits with status 130 — rerun the same command
// to simulate only the rest. Under -no-cache nothing is kept.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/cache"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/sim"
)

// stringList collects the repeatable -s flag, each name at most once.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error {
	if slices.Contains(*l, s) {
		return fmt.Errorf("scenario %q given twice", s)
	}
	*l = append(*l, s)
	return nil
}

// axisOverrides collects the repeatable -axis flag, each axis at most
// once: a second value set would silently replace the first.
type axisOverrides map[string][]string

func (a axisOverrides) String() string { return fmt.Sprint(map[string][]string(a)) }
func (a axisOverrides) Set(s string) error {
	name, values, ok := strings.Cut(s, "=")
	if !ok || name == "" || values == "" {
		return fmt.Errorf("want -axis name=v1,v2,..., got %q", s)
	}
	if _, dup := a[name]; dup {
		return fmt.Errorf("axis %q given twice", name)
	}
	a[name] = strings.Split(values, ",")
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "list":
		list(exp.PaperSpecs())
	case "describe":
		describe(exp.PaperSpecs(), args)
	case "schemes":
		schemes(args)
	case "run", "sweep":
		execute(exp.NewRegistry(), cmd, args)
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `campaign — parallel experiment campaigns over the simulated testbed

commands:
  list                 show registered scenarios, their parameter axes and
                       the registered transmit-path schemes
  describe <scenario>  show a scenario's stations, workloads and emitted
                       metric names, read from a run of its default point
  schemes [-csv]       print registered scheme names (for scripting sweeps)
  run   [flags]        run scenarios over their default parameter grids
  sweep [flags]        run with -axis overrides sweeping chosen parameters

flags of run and sweep:
`)
	fs := executeFlags(&options{})
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

func list(specs []*exp.Spec) {
	fmt.Println("scenarios:")
	for _, s := range specs {
		fmt.Printf("%-12s %s%s\n", s.Name, s.Desc, stationTotal(mustDescribe(s)))
		for _, a := range s.Axes {
			fmt.Printf("  %-18s %s\n", a.Name, strings.Join(a.Values, ", "))
		}
	}
	fmt.Println("\nregistered schemes (usable in any scheme axis):")
	for _, s := range mac.AllSchemes() {
		fmt.Printf("%-18s %s\n", s, s.Desc())
	}
}

// mustDescribe describes a Spec's default point, exiting on a Spec
// whose defaults do not build.
func mustDescribe(s *exp.Spec) *exp.Description {
	d, err := s.Describe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: scenario %q: %v\n", s.Name, err)
		os.Exit(1)
	}
	return d
}

// stationTotal renders a scenario's default-point station count — with
// its BSS count for multi-BSS worlds — as a list suffix.
func stationTotal(d *exp.Description) string {
	if d.PerBSS != nil {
		return fmt.Sprintf("  [%d stations / %d BSS]", len(d.Stations), len(d.PerBSS))
	}
	return fmt.Sprintf("  [%d stations]", len(d.Stations))
}

// describe prints one scenario's parameter grid and what its default
// point builds and emits: topology, stations, workloads (with phase and
// targets) and metric names in artifact order.
func describe(specs []*exp.Spec, args []string) {
	names := make([]string, len(specs))
	var spec *exp.Spec
	for i, s := range specs {
		names[i] = s.Name
		if len(args) == 1 && s.Name == args[0] {
			spec = s
		}
	}
	if len(args) != 1 {
		fmt.Fprintf(os.Stderr, "usage: campaign describe <scenario>   (scenarios: %s)\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q (have %s)\n",
			args[0], strings.Join(names, ", "))
		os.Exit(2)
	}
	fmt.Printf("%s — %s\n", spec.Name, spec.Desc)
	fmt.Println("\nparameters (default grid; override with sweep -axis):")
	for _, a := range spec.Axes {
		fmt.Printf("  %-14s %s\n", a.Name, strings.Join(a.Values, ", "))
	}
	d := mustDescribe(spec)
	if d.PerBSS != nil {
		per := make([]string, len(d.PerBSS))
		for i, n := range d.PerBSS {
			per[i] = fmt.Sprint(n)
		}
		fmt.Printf("\ntopology (default point): %d co-channel BSS, %d stations total (per BSS: %s)\n",
			len(d.PerBSS), len(d.Stations), strings.Join(per, ", "))
	}
	fmt.Printf("\nstations (default point): %s\n", strings.Join(d.Stations, ", "))
	fmt.Println("\nworkloads:")
	for _, w := range d.Workloads {
		fmt.Printf("  %-10s %-38s at %-7s on %s\n", w.Kind, w.Label, w.Phase, w.Target.Describe())
	}
	fmt.Printf("\nmetrics (artifact order): %s\n", strings.Join(d.Metrics, ", "))
}

// schemes prints the registered scheme names, one per line (or
// comma-separated with -csv), for scripting sweeps over every scheme.
func schemes(args []string) {
	fs := flag.NewFlagSet("schemes", flag.ExitOnError)
	csv := fs.Bool("csv", false, "print one comma-separated line")
	fs.Parse(args)
	names := mac.SchemeNames()
	if *csv {
		fmt.Println(strings.Join(names, ","))
		return
	}
	for _, n := range names {
		fmt.Println(n)
	}
}

type options struct {
	scenarios stringList
	axes      axisOverrides
	reps      int
	dur       float64
	warmup    float64
	seed      uint64
	workers   int
	out       string
	csv       string
	quiet     bool
	cacheDir  string
	noCache   bool
	statsOut  string
}

func executeFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	o.axes = make(axisOverrides)
	fs.Var(&o.scenarios, "s", "scenario to run (repeatable; default all)")
	fs.Var(o.axes, "axis", "axis override name=v1,v2,... (repeatable, sweep)")
	fs.IntVar(&o.reps, "reps", 3, "repetitions per grid point")
	fs.Float64Var(&o.dur, "dur", 10, "measured seconds per repetition")
	fs.Float64Var(&o.warmup, "warmup", 2, "settling seconds excluded from measurement")
	fs.Uint64Var(&o.seed, "seed", 42, "campaign base seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&o.out, "out", "", "write JSON artifact to this path")
	fs.StringVar(&o.csv, "csv", "", "write CSV artifact to this path")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress output")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "result cache directory (default <user cache dir>/hj17)")
	fs.BoolVar(&o.noCache, "no-cache", false, "disable the content-addressed result cache")
	fs.StringVar(&o.statsOut, "stats-out", "", "write execution stats JSON (cache hits, wall time) to this path")
	return fs
}

func execute(reg *campaign.Registry, cmd string, args []string) {
	var o options
	fs := executeFlags(&o)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		usage()
		os.Exit(0)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "campaign %s: %v\n", cmd, err)
		os.Exit(2)
	}
	if cmd == "sweep" && len(o.axes) == 0 {
		fmt.Fprintln(os.Stderr, "campaign sweep: need at least one -axis name=v1,v2,...")
		os.Exit(2)
	}
	if err := checkRanges(&o); err != nil {
		fmt.Fprintf(os.Stderr, "campaign %s: %v\n", cmd, err)
		os.Exit(2)
	}
	checkScenarios(reg, o.scenarios)

	// SIGINT interrupts the campaign gracefully: in-flight cells drain
	// into the cache, so a rerun simulates only the rest.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	plan := campaign.Plan{
		Scenarios: o.scenarios,
		Overrides: o.axes,
		Reps:      o.reps,
		Duration:  sim.Time(o.dur * float64(sim.Second)),
		Warmup:    sim.Time(o.warmup * float64(sim.Second)),
		BaseSeed:  o.seed,
		Workers:   o.workers,
		Context:   ctx,
	}

	if !o.noCache {
		dir := o.cacheDir
		if dir == "" {
			d, err := cache.DefaultDir()
			if err != nil {
				fmt.Fprintf(os.Stderr, "campaign: no default cache dir (%v); pass -cache-dir or -no-cache\n", err)
				os.Exit(1)
			}
			dir = d
		}
		store, err := cache.Open(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: opening cache %s: %v\n", dir, err)
			os.Exit(1)
		}
		plan.Cache = store
	}

	start := time.Now()
	if !o.quiet {
		plan.OnProgress = progressLine(start)
	}

	res, err := reg.Execute(plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "\n%v\n", err)
		if errors.Is(err, campaign.ErrInterrupted) {
			os.Exit(130) // conventional SIGINT exit status
		}
		os.Exit(1)
	}
	wall := time.Since(start)
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "%d runs (%d cells × %d reps; %d cached, %d simulated) in %.1fs\n",
			res.Runs, len(res.Cells), res.Reps,
			res.Stats.FromCache, res.Stats.Simulated, wall.Seconds())
	}

	fmt.Print(res.Render())

	if o.out != "" {
		writeArtifact(o.out, res.WriteJSON)
	}
	if o.csv != "" {
		writeArtifact(o.csv, res.WriteCSV)
	}
	if o.statsOut != "" {
		writeArtifact(o.statsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{
				"total":      res.Stats.Total,
				"from_cache": res.Stats.FromCache,
				"simulated":  res.Stats.Simulated,
				"wall_sec":   wall.Seconds(),
			})
		})
	}
}

// checkRanges rejects the flag values campaign.Plan would silently
// replace with its defaults (a zero or negative count, duration or
// seed), negative worker counts, and durations too long for sim.Time's
// int64 nanoseconds. !(x > 0) also rejects NaN.
func checkRanges(o *options) error {
	switch {
	case o.reps < 1:
		return fmt.Errorf("-reps must be at least 1, got %d", o.reps)
	case !(o.dur > 0):
		return fmt.Errorf("-dur must be a positive number of seconds, got %v", o.dur)
	case !(o.warmup > 0):
		return fmt.Errorf("-warmup must be a positive number of seconds, got %v", o.warmup)
	case (o.dur+o.warmup)*float64(sim.Second) >= math.MaxInt64:
		return fmt.Errorf("-dur %v plus -warmup %v seconds overflow simulated time", o.dur, o.warmup)
	case o.seed == 0:
		return errors.New("-seed must be nonzero")
	case o.workers < 0:
		return fmt.Errorf("-workers must be 0 (GOMAXPROCS) or more, got %d", o.workers)
	}
	return nil
}

// checkScenarios rejects unknown -s names up front with a did-you-mean
// hint and a non-zero exit, instead of failing mid-campaign.
func checkScenarios(reg *campaign.Registry, names []string) {
	known := reg.Names()
	bad := false
	for _, name := range names {
		if reg.Get(name) != nil {
			continue
		}
		bad = true
		if sug := campaign.Suggest(name, known); len(sug) > 0 {
			fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q — did you mean %s?\n",
				name, strings.Join(sug, " or "))
		} else {
			fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q (have %s)\n",
				name, strings.Join(known, ", "))
		}
	}
	if bad {
		os.Exit(2)
	}
}

// progressLine renders `done/total (cached, simulated) eta`. The ETA
// divides the remaining cells by the simulated-cell rate only: cache
// hits land in microseconds and would otherwise poison the estimate.
func progressLine(start time.Time) func(campaign.ProgressInfo) {
	return func(p campaign.ProgressInfo) {
		eta := ""
		if rem := p.Total - p.Done; rem > 0 && p.Simulated > 0 {
			perCell := time.Since(start) / time.Duration(p.Simulated)
			eta = fmt.Sprintf("  eta %s", (perCell * time.Duration(rem)).Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "\r%d/%d runs (%d cached, %d simulated)%s ",
			p.Done, p.Total, p.FromCache, p.Simulated, eta)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func writeArtifact(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
