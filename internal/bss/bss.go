// Package bss composes multiple BSSs — each one access point with its
// associated stations — onto a single shared mac.Medium. Co-channel APs
// built through one World contend with each other (OBSS contention)
// through exactly the same EDCA arbitration that intra-BSS transmitters
// use: the medium does not distinguish overlapping-BSS traffic, it only
// accounts it (Medium.BSSBusyTime) under the BSS identity each node
// carries.
//
// Node identifiers are allocated in per-BSS windows of IDStride so a
// thousand-station world never collides, while BSS 0 reproduces the
// historical single-AP identifiers (server 1, AP 2, stations 10+i)
// exactly — a one-BSS World is the legacy topology, byte for byte.
package bss

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/pkt"
)

// Node-identifier layout: each BSS owns the window
// [b*IDStride, (b+1)*IDStride) with fixed offsets inside it.
const (
	IDStride      = 1 << 20 // identifier window per BSS
	ServerOffset  = 1       // wired server behind the BSS's AP
	APOffset      = 2       // the access point
	StationOffset = 10      // stations are StationOffset, StationOffset+1, ...
)

// MaxStations is the most stations one BSS's identifier window holds.
const MaxStations = IDStride - StationOffset

// ServerID returns the wired server identifier of BSS b.
func ServerID(b int) pkt.NodeID { return pkt.NodeID(b*IDStride + ServerOffset) }

// APID returns the access-point identifier of BSS b.
func APID(b int) pkt.NodeID { return pkt.NodeID(b*IDStride + APOffset) }

// StationID returns the identifier of station i of BSS b.
func StationID(b, i int) pkt.NodeID { return pkt.NodeID(b*IDStride + StationOffset + i) }

// StationDef describes one wireless client of a BSS.
type StationDef struct {
	Name string
	Rate phy.Rate
}

// Def describes one BSS: a named AP and its stations.
type Def struct {
	Name     string // AP node name; defaults to "bss<index>"
	Stations []StationDef
}

// Topology is an ordered list of BSS definitions sharing one channel.
type Topology []Def

// TotalStations sums the station counts of every BSS.
func (t Topology) TotalStations() int {
	n := 0
	for _, d := range t {
		n += len(d.Stations)
	}
	return n
}

// Describe renders the topology compactly: uniform worlds collapse to
// "N BSS × M stations", ragged ones list per-BSS counts.
func (t Topology) Describe() string {
	if len(t) == 0 {
		return "empty"
	}
	uniform := true
	for _, d := range t[1:] {
		if len(d.Stations) != len(t[0].Stations) {
			uniform = false
			break
		}
	}
	if uniform {
		if len(t) == 1 {
			return fmt.Sprintf("1 BSS, %d stations", len(t[0].Stations))
		}
		return fmt.Sprintf("%d BSS × %d stations (%d total)",
			len(t), len(t[0].Stations), t.TotalStations())
	}
	s := fmt.Sprintf("%d BSS (", len(t))
	for i, d := range t {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%d", len(d.Stations))
	}
	return s + fmt.Sprintf(" stations, %d total)", t.TotalStations())
}

// Cell is one assembled BSS: the AP node, its station nodes, and the
// AP-side per-station state, all index-aligned with the Def's stations.
type Cell struct {
	Index    int
	Name     string
	AP       *mac.Node
	Stations []*mac.Node
	APViews  []*mac.Station
	Defs     []StationDef
}

// World is a set of cells assembled on one shared environment (and so one
// shared medium).
type World struct {
	Env   *mac.Env
	Cells []*Cell
}

// Config carries the MAC parameters applied when building a world. The AP
// config's Scheme selects the queueing scheme under test; stations run
// whatever cfg.Station says (experiments keep them FIFO — the paper
// modifies only the AP). The BSS field of both is overwritten per cell.
type Config struct {
	AP      mac.Config
	Station mac.Config
}

// Build assembles the topology's cells on env. Every node is tagged with
// its cell index, so the shared medium's per-BSS accounting and the
// grant-path contention behave as one crowded channel of co-channel BSSs.
func Build(env *mac.Env, top Topology, cfg Config) (*World, error) {
	w := &World{Env: env}
	for b, def := range top {
		if len(def.Stations) > MaxStations {
			return nil, fmt.Errorf("bss: BSS %d has %d stations, identifier window holds %d",
				b, len(def.Stations), MaxStations)
		}
		name := def.Name
		if name == "" {
			name = fmt.Sprintf("bss%d", b)
		}
		apCfg := cfg.AP
		apCfg.BSS = b
		ap, err := mac.NewNode(env, APID(b), name, apCfg)
		if err != nil {
			return nil, fmt.Errorf("bss: building AP of BSS %d: %w", b, err)
		}
		cell := &Cell{Index: b, Name: name, AP: ap, Defs: def.Stations}
		for i, sd := range def.Stations {
			staCfg := cfg.Station
			staCfg.BSS = b
			node, err := mac.NewNode(env, StationID(b, i), sd.Name, staCfg)
			if err != nil {
				return nil, fmt.Errorf("bss: building station %s of BSS %d: %w", sd.Name, b, err)
			}
			view := ap.AddStation(node, sd.Rate)
			node.AddStation(ap, sd.Rate)
			cell.Stations = append(cell.Stations, node)
			cell.APViews = append(cell.APViews, view)
		}
		w.Cells = append(w.Cells, cell)
	}
	return w, nil
}

// BusyShare reports the fraction of total medium busy time consumed by
// the given cell's transmitters so far — the world's OBSS occupancy
// split.
func (w *World) BusyShare(b int) float64 {
	total := w.Env.Medium.BusyTime
	if total == 0 {
		return 0
	}
	return float64(w.Env.Medium.BSSBusyTime(b)) / float64(total)
}

// Uniform builds a topology of n identical BSSs with the given per-BSS
// station definitions (copied per cell).
func Uniform(n int, stations []StationDef) Topology {
	top := make(Topology, n)
	for b := range top {
		defs := make([]StationDef, len(stations))
		copy(defs, stations)
		top[b] = Def{Stations: defs}
	}
	return top
}
