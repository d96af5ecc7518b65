// Package exp assembles the paper's testbed inside the simulator and
// defines every table and figure of the evaluation (§4) as a declarative
// Spec (see PaperSpecs). NewRegistry registers them as the campaign
// scenarios cmd/campaign runs, and Spec.Describe reads the metric names
// one emits from a 1 ns run of its default grid point.
//
// The canonical setup mirrors §4: a wired server one Gigabit Ethernet hop
// from the access point, two fast stations close to the AP (MCS15,
// 144.4 Mbps PHY), one slow station limited to MCS0 (7.2 Mbps), and, where
// an experiment calls for it, an extra fast station. The 30-station
// scaling experiment (§4.1.5) instead uses one 1 Mbps legacy client, 28
// fast MCS7 clients and a ping-only MCS7 client.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/ether"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/traffic"
)

// Node identifiers of the single-BSS (legacy) topology. BuildWorld gives
// BSS b the identifier window [b*idStride, (b+1)*idStride) with these
// offsets inside it, so BSS 0 reproduces them exactly.
const (
	ServerID  pkt.NodeID = 1
	APID      pkt.NodeID = 2
	StationID pkt.NodeID = 10 // stations are StationID, StationID+1, ...
)

// idStride is the identifier window of one BSS.
const idStride = 1 << 20

// MaxStations is the most stations one BSS's identifier window holds.
const MaxStations = idStride - int(StationID)

// nodeID returns the identifier at offset id inside BSS b's window.
func nodeID(b int, id pkt.NodeID) pkt.NodeID { return pkt.NodeID(b*idStride) + id }

// FastRate and SlowRate are the paper's station rates: MCS15 HT20 SGI
// (144.4 Mbps) and MCS0 HT20 SGI (7.2 Mbps).
var (
	FastRate = phy.MCS(15, true)
	SlowRate = phy.MCS(0, true)
)

// StationSpec describes one wireless client to create.
type StationSpec struct {
	Name string
	Rate phy.Rate
}

// BSSSpec describes one BSS of a multi-BSS topology: a named AP and its
// stations. Station names must be unique across the whole world (probes
// and weights address stations by name).
type BSSSpec struct {
	Name     string
	Stations []StationSpec
}

// NetConfig configures a testbed instance.
type NetConfig struct {
	Seed     uint64
	Scheme   mac.Scheme
	Stations []StationSpec

	// BSSs, when non-empty, selects the multi-BSS topology form: every
	// listed BSS gets its own AP (running Scheme), wired server and
	// stations, all sharing one medium so co-channel APs contend (OBSS).
	// Mutually exclusive with Stations, which remains the single-BSS
	// shorthand.
	BSSs []BSSSpec

	// WiredDelay is the one-way delay of the server-AP hop (default
	// 1 ms; the VoIP experiments use 5 ms and 50 ms).
	WiredDelay sim.Time

	// MAC overrides applied to the AP (scheme is set from Scheme).
	AP mac.Config

	// StationMAC overrides the clients' MAC parameters (their scheme is
	// always FIFO — the paper modifies only the access point).
	StationMAC mac.Config

	// Weights assigns relative airtime weights by station name. Only
	// schemes whose scheduler honours weights (Weighted-Airtime) are
	// affected; the paper's schemes ignore them. A listed weight must lie
	// in [sched.MinWeight, sched.MaxWeight], or BuildWorld panics; an
	// unlisted station keeps the default weight 1.
	Weights map[string]float64
}

// Station is one wireless client node with its application attachments.
type Station struct {
	Name   string
	Node   *mac.Node
	Host   *traffic.Host
	TCP    *tcp.Host
	APView *mac.Station // the AP's per-station state (airtime, aggregation)
	Rate   phy.Rate

	Cell *Net // the station's own BSS (traffic helpers route through it)
	BSS  int  // the station's BSS index in the world
}

// Net is one assembled BSS of a testbed world: an AP, its wired segment
// (link + server) and its stations. A single-BSS world's only Net is the
// historical testbed, unchanged.
type Net struct {
	Sim      *sim.Sim
	Env      *mac.Env
	AP       *mac.Node
	Link     *ether.Link
	Server   *traffic.Host
	ServerTC *tcp.Host
	Stations []*Station

	World *World // the world this BSS belongs to
	BSS   int    // this BSS's index in the world

	flowCtr uint64
}

// World is an assembled multi-BSS testbed: every cell's transmitters
// share one medium, so co-channel APs contend with each other exactly as
// intra-BSS transmitters do.
type World struct {
	Sim   *sim.Sim
	Env   *mac.Env
	Cells []*Net

	// Stations flattens every cell's stations in cell-major order — the
	// index space probes and workload targets operate in.
	Stations []*Station

	cellStart []int // Stations offset of each cell, plus a final sentinel
	prewarmed int   // packets pre-sized into the pool so far (capped)
}

// poolPrewarmHorizon is the standing-queue horizon the packet pool is
// pre-sized for when a CBR load attaches: an over-subscribed flow holds
// on the order of a second of its offered packets queued before the AQM
// and the global limit bite, and growing the free list one packet at a
// time through that build-up once cooled FQ-CoDel's pool reuse to 72%
// against FIFO's 97% over a 3 s udp-flood world.
const poolPrewarmHorizon = 1 * sim.Second

// poolPrewarmCap bounds the pre-sized packets per world; beyond the
// qdisc global limit's order of magnitude a bigger slab is pure waste.
const poolPrewarmCap = 1 << 14

// prewarmFor pre-sizes the world's packet pool for a newly attached CBR
// load of the given rate in traffic.UDPSize datagrams.
func (w *World) prewarmFor(rateBps float64) {
	pps := rateBps / float64(8*traffic.UDPSize)
	n := int(pps * poolPrewarmHorizon.Seconds())
	if w.prewarmed+n > poolPrewarmCap {
		n = poolPrewarmCap - w.prewarmed
	}
	if n <= 0 {
		return
	}
	w.prewarmed += n
	pkt.PoolOf(w.Sim).Prewarm(n)
}

// BuildWorld assembles a testbed world. The single-BSS Stations form and
// the multi-BSS BSSs form build through the same path, so a one-BSS
// world is structurally identical to the historical single-AP testbed.
// Resolve scheme names through ParseScheme first: a Scheme value outside
// mac's set panics here, as a testbed cannot exist without its transmit
// path.
func BuildWorld(cfg NetConfig) *World {
	if cfg.WiredDelay == 0 {
		cfg.WiredDelay = 1 * sim.Millisecond
	}
	specs := cfg.BSSs
	if len(specs) == 0 {
		specs = []BSSSpec{{Name: "ap", Stations: cfg.Stations}}
	} else if len(cfg.Stations) > 0 {
		panic("exp: NetConfig sets both Stations and BSSs; pick one topology form")
	}

	s := sim.New(cfg.Seed)
	w := &World{Sim: s, Env: mac.NewEnv(s)}
	for b, sp := range specs {
		w.cellStart = append(w.cellStart, len(w.Stations))
		n := newCellNet(w, b, sp, cfg)
		w.Cells = append(w.Cells, n)
		w.Stations = append(w.Stations, n.Stations...)
	}
	w.cellStart = append(w.cellStart, len(w.Stations))

	for name, weight := range cfg.Weights {
		st := w.stationByName(name)
		if st == nil {
			panic(fmt.Sprintf("exp: Weights names unknown station %q (stations: %s)",
				name, strings.Join(w.StationNames(), ", ")))
		}
		if err := sched.CheckWeight(weight); err != nil {
			panic(fmt.Sprintf("exp: Weights[%q]: %v", name, err))
		}
		st.Cell.AP.SetStationWeight(st.APView, weight)
	}
	return w
}

// NewNet builds a single-BSS testbed — the historical entry point, now a
// one-cell world.
func NewNet(cfg NetConfig) *Net {
	if len(cfg.BSSs) > 0 {
		panic("exp: NewNet builds single-BSS testbeds; use BuildWorld for multi-BSS configs")
	}
	return BuildWorld(cfg).Cells[0]
}

// newCellNet builds BSS b of the world: its AP, wired segment (link and
// server) and stations, every node tagged with b so the shared medium
// accounts its occupancy under that BSS.
func newCellNet(w *World, b int, sp BSSSpec, cfg NetConfig) *Net {
	if len(sp.Stations) > MaxStations {
		panic(fmt.Sprintf("exp: BSS %d has %d stations, identifier window holds %d",
			b, len(sp.Stations), MaxStations))
	}
	name := sp.Name
	if name == "" {
		name = fmt.Sprintf("bss%d", b)
	}
	s := w.Sim
	apCfg := cfg.AP
	apCfg.Scheme, apCfg.BSS = cfg.Scheme, b
	ap := newNode(w.Env, nodeID(b, APID), name, apCfg)
	n := &Net{Sim: s, Env: w.Env, AP: ap, World: w, BSS: b}
	serverID := nodeID(b, ServerID)
	n.Link = ether.NewLink(s, cfg.WiredDelay)
	n.Server = traffic.NewHost(s, serverID, n.Link.SendAToB)
	n.ServerTC = &tcp.Host{Sim: s, ID: serverID, Out: n.Server.Out}
	n.Link.DeliverA = n.Server.Deliver
	n.Link.DeliverB = n.downlink

	// Traffic the AP receives over the air heads for the wired segment.
	n.AP.Deliver = func(p *pkt.Packet) {
		if p.Dst == serverID {
			n.Link.SendBToA(p)
			return
		}
		// Station-to-station traffic hairpins through the AP.
		n.AP.Input(p)
	}

	staCfg := cfg.StationMAC
	staCfg.Scheme, staCfg.BSS = mac.SchemeFIFO, b
	for i, ss := range sp.Stations {
		node := newNode(w.Env, nodeID(b, StationID+pkt.NodeID(i)), ss.Name, staCfg)
		view := n.AP.AddStation(node, ss.Rate)
		node.AddStation(n.AP, ss.Rate)
		host := traffic.NewHost(s, node.ID, node.Input)
		node.Deliver = host.Deliver
		n.Stations = append(n.Stations, &Station{
			Name: ss.Name, Node: node, Host: host,
			TCP:    &tcp.Host{Sim: s, ID: node.ID, Out: host.Out},
			APView: view, Rate: ss.Rate,
			Cell: n, BSS: b,
		})
	}
	return n
}

// newNode builds one MAC node; a Scheme value outside mac's set panics.
func newNode(env *mac.Env, id pkt.NodeID, name string, cfg mac.Config) *mac.Node {
	node, err := mac.NewNode(env, id, name, cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: building node %s of BSS %d: %v", name, cfg.BSS, err))
	}
	return node
}

// stationByName searches every cell's stations for the given name.
func (w *World) stationByName(name string) *Station {
	for _, st := range w.Stations {
		if st.Name == name {
			return st
		}
	}
	return nil
}

// downlink feeds packets arriving from the wire into the AP's transmit
// path.
func (n *Net) downlink(p *pkt.Packet) { n.AP.Input(p) }

// Flow allocates a fresh flow identifier.
func (n *Net) Flow() uint64 {
	n.flowCtr++
	return n.flowCtr
}

// Run advances the simulation to the given absolute time.
func (n *Net) Run(until sim.Time) { n.Sim.RunUntil(until) }

// Run advances the simulation to the given absolute time.
func (w *World) Run(until sim.Time) { w.Sim.RunUntil(until) }

// BSSCount returns the number of cells in the world.
func (w *World) BSSCount() int { return len(w.Cells) }

// BSSRange returns the [lo, hi) range of BSS b's stations inside the
// flattened Stations slice.
func (w *World) BSSRange(b int) (lo, hi int) {
	return w.cellStart[b], w.cellStart[b+1]
}

// --- Traffic helpers -----------------------------------------------------

// DownloadTCP starts a bulk TCP transfer from the server to st.
func (n *Net) DownloadTCP(st *Station, ac pkt.AC) *tcp.Conn {
	conn := tcp.NewConn(tcp.Options{
		Client: n.ServerTC, Server: st.TCP, AC: ac, Flow: n.Flow(),
	})
	n.Server.Register(conn.Flow(), conn.Client().Input)
	st.Host.Register(conn.Flow(), conn.Server().Input)
	conn.OpenInstant()
	conn.Client().SendForever()
	return conn
}

// UploadTCP starts a bulk TCP transfer from st to the server.
func (n *Net) UploadTCP(st *Station, ac pkt.AC) *tcp.Conn {
	conn := tcp.NewConn(tcp.Options{
		Client: st.TCP, Server: n.ServerTC, AC: ac, Flow: n.Flow(),
	})
	st.Host.Register(conn.Flow(), conn.Client().Input)
	n.Server.Register(conn.Flow(), conn.Server().Input)
	conn.OpenInstant()
	conn.Client().SendForever()
	return conn
}

// DownloadUDP starts a CBR UDP flood from the server to st and returns the
// source and the station-side sink.
func (n *Net) DownloadUDP(st *Station, rateBps float64, ac pkt.AC) (*traffic.UDPSource, *traffic.UDPSink) {
	n.World.prewarmFor(rateBps)
	flow := n.Flow()
	src := traffic.NewUDPSource(n.Server, traffic.UDPConfig{
		Dst: st.Host.ID, Flow: flow, RateBps: rateBps, AC: ac,
	})
	sink := traffic.NewUDPSink(st.Host, flow)
	src.Start()
	return src, sink
}

// Ping starts a pinger from the server toward st.
func (n *Net) Ping(st *Station, interval sim.Time, id int) *traffic.Pinger {
	p := traffic.NewPinger(n.Server, traffic.PingerConfig{Dst: st.Host.ID, Interval: interval, ID: id})
	p.Start()
	return p
}

// VoIPDown starts a voice stream from the server to st and returns the
// station-side sink.
func (n *Net) VoIPDown(st *Station, ac pkt.AC) (*traffic.VoIPSource, *traffic.VoIPSink) {
	flow := n.Flow()
	src := traffic.NewVoIPSource(n.Server, st.Host.ID, flow, ac)
	sink := traffic.NewVoIPSink(st.Host, flow)
	src.Start()
	return src, sink
}

// Web creates a web client at st fetching page from the server.
func (n *Net) Web(st *Station, page traffic.WebPage) *traffic.WebClient {
	base := n.Flow()
	n.flowCtr += 1 << 20 // reserve id space for per-fetch flows
	return traffic.NewWebClient(traffic.WebConfig{
		Client: st.Host, Server: n.Server,
		TCPClient: st.TCP, TCPServer: n.ServerTC,
		Page: page, FlowBase: base << 24,
	})
}

// --- Measurement helpers -------------------------------------------------

// AirtimeSnapshot captures per-station airtime counters so a warmup period
// can be excluded from share computations.
type AirtimeSnapshot struct {
	tx, rx []sim.Time
}

// SnapshotAirtime records the current airtime counters of every station
// in the world.
func (w *World) SnapshotAirtime() AirtimeSnapshot {
	snap := AirtimeSnapshot{
		tx: make([]sim.Time, len(w.Stations)),
		rx: make([]sim.Time, len(w.Stations)),
	}
	for i, st := range w.Stations {
		snap.tx[i] = st.APView.TxAirtime
		snap.rx[i] = st.APView.RxAirtime
	}
	return snap
}

// AirtimeSince returns each station's airtime accumulated since the
// snapshot (TX + RX), in seconds, in flattened world order.
func (w *World) AirtimeSince(snap AirtimeSnapshot) []float64 {
	out := make([]float64, len(w.Stations))
	for i, st := range w.Stations {
		d := (st.APView.TxAirtime - snap.tx[i]) + (st.APView.RxAirtime - snap.rx[i])
		out[i] = d.Seconds()
	}
	return out
}

// StationNames lists every cell's station names in flattened world
// order.
func (w *World) StationNames() []string {
	names := make([]string, len(w.Stations))
	for i, st := range w.Stations {
		names[i] = st.Name
	}
	return names
}

// DefaultStations returns the paper's basic 3-station specification: two
// fast (MCS15) and one slow (MCS0).
func DefaultStations() []StationSpec {
	return []StationSpec{
		{Name: "fast1", Rate: FastRate},
		{Name: "fast2", Rate: FastRate},
		{Name: "slow", Rate: SlowRate},
	}
}

// FourStations is DefaultStations plus the extra fast station used by the
// sparse-station and VoIP experiments.
func FourStations() []StationSpec {
	return append(DefaultStations(), StationSpec{Name: "fast3", Rate: FastRate})
}
