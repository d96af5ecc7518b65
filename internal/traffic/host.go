// Package traffic provides the application-level traffic models of the
// paper's evaluation: ICMP ping (latency), UDP constant-bitrate floods,
// VoIP streams with delay/jitter/loss measurement, and an emulated web
// client measuring page-load time over parallel TCP connections.
package traffic

import (
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Host is a node's application layer: it owns the protocol demultiplexer
// that receives packets from the node's network stack and dispatches them
// to endpoints (flows register by flow id; ICMP echo is answered
// automatically, mirroring a kernel's responder).
type Host struct {
	Sim *sim.Sim
	ID  pkt.NodeID
	// Out injects a packet into the node's network stack (the WiFi MAC
	// or the wired link).
	Out func(*pkt.Packet)

	handlers map[uint64]func(*pkt.Packet)
	pingers  map[int]*Pinger
	pool     *pkt.Pool

	// lastFlow and lastFn memoize the handler of the previous flow
	// delivered, so a run of one flow's packets skips the map. Register
	// clears lastFn.
	lastFlow uint64
	lastFn   func(*pkt.Packet)

	// Unclaimed counts packets that matched no handler.
	Unclaimed int64
}

// NewHost creates an application layer for one node.
func NewHost(s *sim.Sim, id pkt.NodeID, out func(*pkt.Packet)) *Host {
	return &Host{
		Sim: s, ID: id, Out: out,
		handlers: make(map[uint64]func(*pkt.Packet)),
		pingers:  make(map[int]*Pinger),
		pool:     pkt.PoolOf(s),
	}
}

// Register installs a handler for packets of the given flow id.
func (h *Host) Register(flow uint64, fn func(*pkt.Packet)) {
	h.handlers[flow] = fn
	h.lastFn = nil
}

// Deliver dispatches a packet arriving at this host. It is installed as
// the node's receive hook. The host is every packet's final owner: once
// the matching handler (or the ICMP responder) has run, the packet is
// released back to the world's pool.
//
//hj17:owns
//hj17:hotpath
func (h *Host) Deliver(p *pkt.Packet) {
	if p.Proto == pkt.ProtoICMP {
		h.icmp(p)
	} else if p.Flow == h.lastFlow && h.lastFn != nil {
		h.lastFn(p)
	} else if fn, ok := h.handlers[p.Flow]; ok {
		h.lastFlow, h.lastFn = p.Flow, fn
		fn(p)
	} else {
		h.Unclaimed++
	}
	h.pool.Put(p)
}

// icmp answers echo requests and routes replies to their pinger.
func (h *Host) icmp(p *pkt.Packet) {
	if !p.IsReply {
		reply := h.pool.Get()
		reply.Size = p.Size
		reply.Proto = pkt.ProtoICMP
		reply.Src = h.ID
		reply.Dst = p.Src
		reply.Flow = p.Flow
		reply.AC = p.AC
		reply.Created = p.Created // echo the request timestamp for RTT
		reply.EchoID = p.EchoID
		reply.EchoSeq = p.EchoSeq
		reply.IsReply = true
		h.Out(reply)
		return
	}
	if pg, ok := h.pingers[p.EchoID]; ok {
		pg.reply(p)
		return
	}
	h.Unclaimed++
}

// Pinger sends periodic ICMP echo requests and collects round-trip times.
type Pinger struct {
	host     *Host
	dst      pkt.NodeID
	interval sim.Time
	id       int
	seq      int
	stop     func()

	// RTT holds round-trip samples in milliseconds.
	RTT stats.Sample
	// Sent and Received count echo requests and matching replies.
	Sent, Received int64
}

// PingerConfig configures a Pinger. Echo requests are 64 bytes, sent
// best effort.
type PingerConfig struct {
	Dst      pkt.NodeID
	Interval sim.Time // default 100 ms
	ID       int      // echo identifier; must be unique per host
}

// pingSize is the size in bytes of an echo request, ping's default.
const pingSize = 64

// NewPinger creates (but does not start) a pinger on h.
func NewPinger(h *Host, cfg PingerConfig) *Pinger {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * sim.Millisecond
	}
	p := &Pinger{host: h, dst: cfg.Dst, interval: cfg.Interval, id: cfg.ID}
	if _, dup := h.pingers[cfg.ID]; dup {
		panic("traffic: duplicate pinger id")
	}
	h.pingers[cfg.ID] = p
	return p
}

// Start begins sending echo requests.
func (p *Pinger) Start() {
	if p.stop != nil {
		return
	}
	p.stop = p.host.Sim.Ticker(p.interval, p.sendOne)
}

// Stop halts the pinger.
func (p *Pinger) Stop() {
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
}

func (p *Pinger) sendOne() {
	p.seq++
	p.Sent++
	q := p.host.pool.Get()
	q.Size = pingSize
	q.Proto = pkt.ProtoICMP
	q.Src = p.host.ID
	q.Dst = p.dst
	q.Flow = pingFlowBase + uint64(p.id) // distinct flow per pinger
	q.AC = pkt.ACBE
	q.Created = p.host.Sim.Now()
	q.EchoID = p.id
	q.EchoSeq = p.seq
	p.host.Out(q)
}

func (p *Pinger) reply(rep *pkt.Packet) {
	p.Received++
	p.RTT.AddTime(p.host.Sim.Now() - rep.Created)
}
