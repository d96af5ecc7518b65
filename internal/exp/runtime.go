package exp

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Runtime is the fabric between workloads and probes for one simulation
// run: workloads publish their measurement surfaces (taps) into it as
// they attach, Arm snapshots every counter at the start of the measured
// interval, and probes read measurement-window deltas out of it when the
// run ends. The campaign-facing Spec runner drives it automatically;
// imperative users (cmd/airtime-sim, examples/mixedworkload) drive it by
// hand:
//
//	rt := exp.NewRuntime(n.World)
//	rt.AttachPhase(workloads, exp.PhaseStart)
//	n.Run(warmup)
//	rt.AttachPhase(workloads, exp.PhaseMeasure)
//	rt.Arm()
//	n.Run(end)
//	shares, gp := rt.Shares(), rt.Goodputs()
type Runtime struct {
	w      *World
	taps   []stationTaps
	pingID int

	armed   bool
	armedAt sim.Time
	airSnap AirtimeSnapshot
	rxSnap  []int64
	aggC    []int64
	aggP    []int64
	bssSnap []sim.Time // per-BSS medium busy time at Arm

	// measurement-window results, cached per reading instant: computed
	// on first access, discarded when simulated time moves on (or the
	// runtime re-arms), so repeated reads stay internally consistent.
	cachedAt sim.Time
	air      []float64
	shares   []float64
	gps      []float64
	rxd      []int64
}

// stationTaps collects one station's published measurement surfaces.
type stationTaps struct {
	rx  []func() int64
	rtt []*stats.Sample
	mos []func() float64
	plt []*stats.Sample
}

// NewRuntime wraps a testbed world for workload attachment and probing;
// stations are addressed in flattened cell-major order.
func NewRuntime(w *World) *Runtime {
	return &Runtime{w: w, taps: make([]stationTaps, len(w.Stations))}
}

// World returns the underlying testbed world.
func (rt *Runtime) World() *World { return rt.w }

// Attach attaches one workload to its selected stations immediately,
// regardless of its declared phase.
func (rt *Runtime) Attach(w *Workload) {
	n := len(rt.w.Stations)
	for i, st := range rt.w.Stations {
		if w.Target.Matches(i, n, st.Name) {
			w.attach(rt, i, st)
		}
	}
}

// AttachPhase attaches every workload of the given phase. Attachment
// order is station-major (for each station in creation order, each
// matching workload in declaration order), so a composition attaches —
// and allocates flow identifiers — in one deterministic sequence.
func (rt *Runtime) AttachPhase(ws []*Workload, ph Phase) {
	n := len(rt.w.Stations)
	for i, st := range rt.w.Stations {
		for _, w := range ws {
			if w.Phase == ph && w.Target.Matches(i, n, st.Name) {
				w.attach(rt, i, st)
			}
		}
	}
}

// Tap registration (called by workloads during attach).

func (rt *Runtime) tapRx(i int, fn func() int64)    { rt.taps[i].rx = append(rt.taps[i].rx, fn) }
func (rt *Runtime) tapRTT(i int, s *stats.Sample)   { rt.taps[i].rtt = append(rt.taps[i].rtt, s) }
func (rt *Runtime) tapMOS(i int, fn func() float64) { rt.taps[i].mos = append(rt.taps[i].mos, fn) }
func (rt *Runtime) tapPLT(i int, s *stats.Sample)   { rt.taps[i].plt = append(rt.taps[i].plt, s) }

// Arm starts the measurement window: it snapshots airtime, aggregation
// and every byte tap so probes report deltas over the window only.
// Re-arming starts a fresh window (cached readings are discarded).
func (rt *Runtime) Arm() {
	rt.armed = true
	rt.armedAt = rt.w.Sim.Now()
	rt.air, rt.shares, rt.gps, rt.rxd = nil, nil, nil, nil
	rt.airSnap = rt.w.SnapshotAirtime()
	n := len(rt.w.Stations)
	rt.rxSnap = make([]int64, n)
	rt.aggC = make([]int64, n)
	rt.aggP = make([]int64, n)
	for i, st := range rt.w.Stations {
		rt.aggC[i] = st.APView.AggCount
		rt.aggP[i] = st.APView.AggPackets
		rt.rxSnap[i] = rt.rxNow(i)
	}
	rt.bssSnap = make([]sim.Time, rt.w.BSSCount())
	for b := range rt.bssSnap {
		rt.bssSnap[b] = rt.w.Env.Medium.BSSBusyTime(b)
	}
}

func (rt *Runtime) rxNow(i int) int64 {
	var total int64
	for _, fn := range rt.taps[i].rx {
		total += fn()
	}
	return total
}

// mustArm guards the window accessors: reading deltas without a
// measurement window is a composition bug, reported as such instead of
// an index panic deep in snapshot code. It also drops cached readings
// once simulated time has moved past the instant they were computed at,
// so a later read reflects the window as it stands now.
func (rt *Runtime) mustArm() {
	if !rt.armed {
		panic("exp: Runtime.Arm must be called before reading window metrics")
	}
	if now := rt.w.Sim.Now(); now != rt.cachedAt {
		rt.cachedAt = now
		rt.air, rt.shares, rt.gps, rt.rxd = nil, nil, nil, nil
	}
}

// Window reports the elapsed measured time (Arm to now), in seconds.
func (rt *Runtime) Window() float64 {
	rt.mustArm()
	return (rt.w.Sim.Now() - rt.armedAt).Seconds()
}

// AirDeltas returns each station's airtime accumulated over the
// measurement window (TX + RX), in seconds.
func (rt *Runtime) AirDeltas() []float64 {
	rt.mustArm()
	if rt.air == nil {
		rt.air = rt.w.AirtimeSince(rt.airSnap)
	}
	return rt.air
}

// Shares returns each station's fraction of the airtime consumed over
// the measurement window.
func (rt *Runtime) Shares() []float64 {
	rt.mustArm()
	if rt.shares == nil {
		rt.shares = stats.Shares(rt.AirDeltas())
	}
	return rt.shares
}

// RxDeltas returns each station's bytes received over the window, summed
// across the station's byte taps.
func (rt *Runtime) RxDeltas() []int64 {
	rt.mustArm()
	if rt.rxd == nil {
		rt.rxd = make([]int64, len(rt.taps))
		for i := range rt.taps {
			rt.rxd[i] = rt.rxNow(i) - rt.rxSnap[i]
		}
	}
	return rt.rxd
}

// Goodputs returns each station's goodput over the window in bits/s.
func (rt *Runtime) Goodputs() []float64 {
	rt.mustArm()
	if rt.gps == nil {
		dur := rt.Window()
		rxd := rt.RxDeltas()
		rt.gps = make([]float64, len(rxd))
		for i, d := range rxd {
			rt.gps[i] = float64(d) * 8 / dur
		}
	}
	return rt.gps
}

// AggMean returns station i's mean A-MPDU size (packets per aggregate)
// over the window, or 0 if it built none.
func (rt *Runtime) AggMean(i int) float64 {
	rt.mustArm()
	st := rt.w.Stations[i]
	dc := st.APView.AggCount - rt.aggC[i]
	dp := st.APView.AggPackets - rt.aggP[i]
	if dc <= 0 {
		return 0
	}
	return float64(dp) / float64(dc)
}

// BSSBusyDeltas returns the medium busy time each BSS's transmitters
// consumed over the measurement window, in seconds — the world's OBSS
// occupancy split.
func (rt *Runtime) BSSBusyDeltas() []float64 {
	rt.mustArm()
	out := make([]float64, len(rt.bssSnap))
	for b := range out {
		out[b] = (rt.w.Env.Medium.BSSBusyTime(b) - rt.bssSnap[b]).Seconds()
	}
	return out
}

// RTT merges station i's round-trip-time taps into out.
func (rt *Runtime) RTT(i int, out *stats.Sample) {
	for _, s := range rt.taps[i].rtt {
		out.Merge(s)
	}
}

// PLT merges station i's page-load-time taps into out.
func (rt *Runtime) PLT(i int, out *stats.Sample) {
	for _, s := range rt.taps[i].plt {
		out.Merge(s)
	}
}

// MOS returns the E-model score of the first call terminating at any
// station, in station order, and whether one exists.
func (rt *Runtime) MOS() (float64, bool) {
	for i := range rt.taps {
		for _, fn := range rt.taps[i].mos {
			return fn(), true
		}
	}
	return 0, false
}
