package exp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// unpooledRegistry registers every paper Spec like NewRegistry, except
// that each run releases its world's packet pool before the world runs.
// A released pool never recycles (see pkt.Pool.Release), so these runs
// are the reference that packet recycling must not change.
func unpooledRegistry() *campaign.Registry {
	r := campaign.NewRegistry()
	for _, s := range PaperSpecs() {
		sc := s.Scenario()
		sc.Run = func(ctx campaign.Ctx) (*campaign.Metrics, error) {
			inst, err := s.Build(paramsFromCtx(ctx, s.Axes))
			if err != nil {
				return nil, err
			}
			cfg := inst.Net
			cfg.Seed = ctx.Seed
			w := BuildWorld(cfg)
			pkt.PoolOf(w.Sim).Release()
			m, _ := inst.run(w, ctx)
			return m, nil
		}
		r.Register(sc)
	}
	return r
}

// TestPoolingOnOffIdenticalArtifacts runs a mixed TCP/UDP/VoIP campaign
// on recycling pools and on pools that never recycle and asserts the
// artifacts are byte-identical: recycling object memory must never
// change simulated behaviour.
func TestPoolingOnOffIdenticalArtifacts(t *testing.T) {
	plan := campaign.Plan{
		Scenarios: []string{"udp", "latency", "voip"},
		Overrides: map[string][]string{
			"scheme":   {"FIFO", "FQ-CoDel", "Airtime"},
			"qos":      {"BE"},
			"delay-ms": {"5"},
		},
		Reps:     2,
		Duration: 1 * sim.Second,
		Warmup:   sim.Second / 2,
		BaseSeed: 5,
		Workers:  4,
	}
	off := artifactHash(t, unpooledRegistry(), plan)
	on := artifactHash(t, NewRegistry(), plan)
	if on != off {
		t.Fatalf("campaign artifacts diverge with pooling on (%s) vs off (%s)", on, off)
	}
}

// TestPoolNoLeakAtDrain runs a mixed TCP/UDP/VoIP/ping world under every
// paper scheme, stops all sources, drains the event queue completely and
// asserts the live-packet count returns to zero: every packet the
// simulation created was released at exactly one sink.
func TestPoolNoLeakAtDrain(t *testing.T) {
	for _, scheme := range append(append([]mac.Scheme{}, mac.Schemes...), mac.SchemeDTT) {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			n := NewNet(NetConfig{Seed: 77, Scheme: scheme, Stations: DefaultStations()})
			var stops []func()
			for _, st := range n.Stations {
				src, _ := n.DownloadUDP(st, 30e6, pkt.ACBE)
				stops = append(stops, src.Stop)
				vsrc, _ := n.VoIPDown(st, pkt.ACVO)
				stops = append(stops, vsrc.Stop)
				// A finite TCP download through the full handshake.
				conn := tcp.NewConn(tcp.Options{
					Client: n.ServerTC, Server: st.TCP, AC: pkt.ACBE, Flow: n.Flow(),
				})
				n.Server.Register(conn.Flow(), conn.Client().Input)
				st.Host.Register(conn.Flow(), conn.Server().Input)
				conn.Open()
				conn.Client().SendData(200 << 10)
			}
			p := n.Ping(n.Stations[0], 0, 1)
			stops = append(stops, p.Stop)

			n.Run(2 * sim.Second)
			for _, stop := range stops {
				stop()
			}
			// Drain: with the sources stopped every queued packet either
			// delivers or drops, and both paths release to the pool.
			n.Sim.Run(100_000_000)
			if pending := n.Sim.Pending(); pending != 0 {
				t.Fatalf("%d events still pending after drain", pending)
			}
			st := pkt.PoolOf(n.Sim).Stats()
			if st.Live() != 0 {
				t.Fatalf("%d packets leaked at drain (gets=%d puts=%d)",
					st.Live(), st.Gets, st.Puts)
			}
			if st.Gets == 0 {
				t.Fatal("world moved no packets")
			}
		})
	}
}

// TestReleasedWorldsFeedTheNextRun runs one udp plan twice in a process
// with the collector off. The first run's worlds released their packet
// slabs into the reservoir, so the second run draws its packets from
// there and allocates at most 60% of the first's bytes (a pool that
// allocated every world's packets afresh would allocate as much).
func TestReleasedWorldsFeedTheNextRun(t *testing.T) {
	if raceOn {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	// Two cycles empty the reservoir of earlier tests' slabs; with the
	// collector off nothing empties it during the test.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plan := campaign.Plan{
		Scenarios: []string{"udp"},
		Reps:      1,
		Duration:  sim.Second,
		Warmup:    sim.Second / 2,
		BaseSeed:  1,
		Workers:   1,
	}
	reg := NewRegistry()
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := reg.Execute(plan); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated()
	second := allocated()
	t.Logf("first run %d B, second %d B", first, second)
	if ratio := float64(second) / float64(first); ratio > 0.6 {
		t.Fatalf("second run allocated %d B, %.0f%% of the first's %d B; want <= 60%%",
			second, 100*ratio, first)
	}
}
