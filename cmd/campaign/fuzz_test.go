package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// maxFuzzStations caps the worlds FuzzAxis runs. scale and dense accept
// up to exp.MaxStations (about a million) stations per BSS, so an
// accepted instance above the cap is only built, not run.
const maxFuzzStations = 256

// FuzzAxis drives the -axis path with arbitrary flag text. Whatever
// axisOverrides.Set accepts, every paper Spec declaring that axis must
// build its default point with each value or return an error, never
// panic or hang; an instance of at most maxFuzzStations stations must
// also run a 1 ms window.
func FuzzAxis(f *testing.F) {
	for _, seed := range []string{
		// TestRejectsOutOfRangeFlags' axes.
		"scheme=FIFO", "scheme=Airtime", "rate-mbps=50,20,50",
		// The sweeps README.md and EXPERIMENTS.md document.
		"browser=slow", "browser=fast,slow", "dir=down,bidir",
		"scheme=FIFO,Airtime,Airtime-RR", "rate-mbps=10,50,100", "rate-mbps=5,10,20,50,100",
		"slow-weight=0.5,1,2,4", "stations=8,16,30,60", "stations=1000", "bss=8",
		"scheme=FIFO,FQ-MAC,Airtime-RR,Airtime", "scheme=Airtime,FQ-CoDel", "stations=64", "bss=4",
		"traffic=udp", "scheme=" + strings.Join(mac.SchemeNames(), ","),
		// Values that must fail cleanly.
		"scheme=FOO", "dir=bidr", "stations=2", "scheme=fifo,FIFO", "rate-mbps=NaN",
		"rate-mbps=-Inf", "rate-mbps=1e309", "rate-mbps=400", "stations=0x10", "stations= 30",
		"stations=99999999999999999999", "bss=65", "bss=0", "slow-weight=1e-3",
		"delay-ms=60001", "delay-ms=-5", "qos=vo", "=FIFO", "scheme=", "scheme=FIFO,",
	} {
		f.Add(seed)
	}
	specs := exp.PaperSpecs()
	f.Fuzz(func(t *testing.T, arg string) {
		axes := make(axisOverrides)
		if axes.Set(arg) != nil {
			return
		}
		name, _, _ := strings.Cut(arg, "=")
		for _, spec := range specs {
			if !slices.ContainsFunc(spec.Axes, func(a campaign.Axis) bool { return a.Name == name }) {
				continue
			}
			for _, v := range axes[name] {
				p := spec.Defaults()
				p[name] = v
				inst, err := spec.Build(p)
				if err != nil {
					continue
				}
				stations := len(inst.Net.Stations)
				for _, b := range inst.Net.BSSs {
					stations += len(b.Stations)
				}
				if stations > maxFuzzStations {
					continue
				}
				_, rt := inst.Execute(campaign.Ctx{Seed: 1, Duration: sim.Millisecond})
				pkt.PoolOf(rt.World().Sim).Release()
			}
		}
	})
}
