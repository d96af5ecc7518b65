package exp

import (
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// BenchCounters are the normalisation counters cmd/bench and the root
// benchmarks divide wall-clock and allocation figures by.
type BenchCounters struct {
	Packets     int64  // packets entering a MAC transmit path (all nodes)
	PoolGets    int64  // packets handed out by the world's pool
	PoolNews    int64  // pool gets served by neither recycling nor Prewarm
	LivePackets int64  // packets still held when the run stopped
	Events      uint64 // simulator events executed
	EventAllocs uint64 // events heap-allocated (vs recycled)
}

// BenchWorldConfig configures one benchmark world.
type BenchWorldConfig struct {
	Scheme   mac.Scheme
	Seed     uint64
	Duration sim.Time // total simulated time (default 3 s)
	RateBps  float64  // per-station UDP load (default 50 Mbps)
	TCP      bool     // add a bulk TCP download per station
}

// BenchWorld is a prepared 3-station testbed with its workload attached,
// ready for one timed run. Construction is separate from Run so the
// benchmark driver can assemble the world — and collect the previous
// iteration's garbage — outside the timed window; measuring world
// assembly alongside the run let GC pacer state bleed between schemes
// measured in one process and made their relative ns/pkt figures
// order-dependent.
type BenchWorld struct {
	n   *Net
	dur sim.Time
}

// NewBenchWorld builds the paper's 3-station testbed and attaches the
// standard saturating workload (per-station UDP floods plus a ping, and
// optionally bulk TCP).
func NewBenchWorld(cfg BenchWorldConfig) *BenchWorld {
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * sim.Second
	}
	if cfg.RateBps <= 0 {
		cfg.RateBps = 50e6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	n := NewNet(NetConfig{Seed: cfg.Seed, Scheme: cfg.Scheme, Stations: DefaultStations()})
	for _, st := range n.Stations {
		n.DownloadUDP(st, cfg.RateBps, pkt.ACBE)
		if cfg.TCP {
			n.DownloadTCP(st, pkt.ACBE)
		}
	}
	n.Ping(n.Stations[0], 0, 1)
	return &BenchWorld{n: n, dur: cfg.Duration}
}

// Run drives the world for the configured simulated time and returns the
// counters. One call is one benchmark iteration.
func (bw *BenchWorld) Run() BenchCounters {
	n := bw.n
	n.Run(bw.dur)

	var c BenchCounters
	c.Packets = n.AP.InputPackets
	for _, st := range n.Stations {
		c.Packets += st.Node.InputPackets
	}
	ps := pkt.PoolOf(n.Sim).Stats()
	c.PoolGets = ps.Gets
	c.PoolNews = ps.News
	c.LivePackets = ps.Live()
	c.Events = n.Sim.EventsRun()
	c.EventAllocs = n.Sim.EventsAllocated()
	return c
}

// DenseBenchConfig configures one dense multi-BSS benchmark world.
type DenseBenchConfig struct {
	Scheme   mac.Scheme
	Seed     uint64
	Duration sim.Time // measured simulated time (default 2 s)
	Warmup   sim.Time // settling time run during construction (default 500 ms)
	Stations int      // total stations across the world (default 30)
	BSSs     int      // co-channel BSSs (default 1)

	// OfferedBps is the world-wide UDP load carried by the active subset
	// (default 60 Mbps, below the medium's capacity at every sweep point
	// so queues stay short and the run measures machinery, not standing
	// buffers). The saturated all-stations regime is the dense campaign
	// scenario's job (DenseOfferedBps).
	OfferedBps float64

	// ActiveStations is the size of the subset actually carrying traffic
	// (default 24), spread round-robin across the BSSs. The flat-scaling
	// claim is that per-packet cost follows the *active* set, not the
	// association count: every grown world registers all its stations —
	// txqs on the medium, scheduler entries, TID state — and if any hot
	// loop scanned per-association state, ns/pkt would grow with the
	// population even though the driven flows stay fixed.
	ActiveStations int
}

// DenseBenchWorld is a prepared dense multi-BSS world with its workload
// attached and warmed up, ready for one timed run. Construction and
// warmup are deliberately separate from Run so benchmarks can exclude
// the one-time O(stations) world assembly and per-station first-packet
// setup (lazy TID state, driver queues, scheduler entries) and measure
// the steady-state per-packet cost — the quantity the flat-scaling
// claim is about.
type DenseBenchWorld struct {
	w     *World
	until sim.Time
	base  BenchCounters
}

// NewDenseBenchWorld builds a dense multi-BSS world (DenseTopology) and
// attaches the scaling-sweep workload: a fixed world-wide UDP load over
// a fixed-size active subset of the stations, plus a ping into each
// BSS. Because both the offered load and the active set are
// population-independent, ns/pkt across sweep points isolates how the
// simulator's structures scale with association count and co-channel
// BSS count.
func NewDenseBenchWorld(cfg DenseBenchConfig) *DenseBenchWorld {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * sim.Second
	}
	if cfg.Stations <= 0 {
		cfg.Stations = 30
	}
	if cfg.BSSs <= 0 {
		cfg.BSSs = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	w := BuildWorld(NetConfig{
		Seed: cfg.Seed, Scheme: cfg.Scheme,
		BSSs: DenseTopology(cfg.Stations, cfg.BSSs),
	})
	if cfg.Warmup <= 0 {
		cfg.Warmup = 500 * sim.Millisecond
	}
	if cfg.OfferedBps <= 0 {
		cfg.OfferedBps = 60e6
	}
	if cfg.ActiveStations <= 0 {
		cfg.ActiveStations = 24
	}
	// Pick the active subset round-robin across the cells, fast stations
	// only (each cell's station 0 is the slow MCS0 client), so every BSS
	// carries traffic and OBSS contention is exercised at every point.
	var active []*Station
	for round := 1; len(active) < cfg.ActiveStations; round++ {
		added := false
		for _, cell := range w.Cells {
			if round < len(cell.Stations) {
				active = append(active, cell.Stations[round])
				added = true
				if len(active) == cfg.ActiveStations {
					break
				}
			}
		}
		if !added {
			break
		}
	}
	perStation := cfg.OfferedBps / float64(len(active))
	for _, st := range active {
		st.Cell.DownloadUDP(st, perStation, pkt.ACBE)
	}
	for _, cell := range w.Cells {
		cell.Ping(cell.Stations[0], 0, cell.BSS+1)
	}
	w.Run(cfg.Warmup)
	// Keep warming in half-second steps until the packet pool stops
	// heap-growing, so the timed window measures the steady state rather
	// than queue fill and its GC pressure.
	pool := pkt.PoolOf(w.Sim)
	prev := pool.Stats().News
	for i := 0; i < 60; i++ {
		w.Run(w.Sim.Now() + 500*sim.Millisecond)
		news := pool.Stats().News
		if news-prev < 16 {
			break
		}
		prev = news
	}
	return &DenseBenchWorld{
		w: w, until: w.Sim.Now() + cfg.Duration,
		base: collectCounters(w),
	}
}

// collectCounters reads the world's cumulative benchmark counters.
func collectCounters(w *World) BenchCounters {
	var c BenchCounters
	for _, cell := range w.Cells {
		c.Packets += cell.AP.InputPackets
	}
	for _, st := range w.Stations {
		c.Packets += st.Node.InputPackets
	}
	ps := pkt.PoolOf(w.Sim).Stats()
	c.PoolGets = ps.Gets
	c.PoolNews = ps.News
	c.LivePackets = ps.Live()
	c.Events = w.Sim.EventsRun()
	c.EventAllocs = w.Sim.EventsAllocated()
	return c
}

// Run advances the world through its measured simulated time and returns
// the counters accumulated over that window (warmup excluded). One call
// is one benchmark iteration.
func (bw *DenseBenchWorld) Run() BenchCounters {
	bw.w.Run(bw.until)
	c := collectCounters(bw.w)
	c.Packets -= bw.base.Packets
	c.PoolGets -= bw.base.PoolGets
	c.PoolNews -= bw.base.PoolNews
	c.Events -= bw.base.Events
	c.EventAllocs -= bw.base.EventAllocs
	return c
}
