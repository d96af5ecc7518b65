// Package tcp implements a TCP transport over the simulator, providing the
// closed-loop traffic the paper's TCP experiments need. It models what the
// testbed's Linux (Ubuntu 16.04 / kernel 4.6) endpoints run: Cubic
// congestion control with HyStart, SACK-based loss recovery, RTO with
// exponential backoff (RFC 6298), delayed acknowledgements and a fixed
// receive window.
//
// Connections are full duplex: both ends can queue application data, which
// is what the web traffic model (requests up, responses down) relies on.
// Data is synthetic — segments carry byte counts, not buffers.
package tcp

import (
	"fmt"
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Protocol constants (Linux-like defaults).
const (
	MSS        = 1448                  // segment payload bytes
	HeaderLen  = 52                    // IP + TCP header incl. timestamps
	SegSize    = MSS + HeaderLen       // full-size data packet on the wire
	InitCwnd   = 10 * MSS              // initial window (RFC 6928)
	MinRTO     = 200 * sim.Millisecond // Linux lower bound
	MaxRTO     = 60 * sim.Second
	InitRTO    = 1 * sim.Second
	DelAckTime = 40 * sim.Millisecond
	DefaultWnd = 6 << 20 // receive window bytes, fixed for every connection
	maxSackBlk = 16      // SACK ranges carried per ACK (model simplification)
)

// Cubic parameters (RFC 8312).
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Options configures a connection.
type Options struct {
	Client, Server *Host
	AC             pkt.AC
	Flow           uint64 // unique flow id; both directions share it
}

// Host describes one endpoint's attachment to the simulation.
type Host struct {
	Sim *sim.Sim
	ID  pkt.NodeID
	// Out injects a packet into the host's network stack toward the
	// destination (e.g. the wired link or the WiFi MAC).
	Out func(*pkt.Packet)

	pool *pkt.Pool // lazily resolved per-world packet pool
}

// pktPool returns the world's packet pool, resolving it on first use
// (Host values are constructed as plain literals throughout the tree).
func (h *Host) pktPool() *pkt.Pool {
	if h.pool == nil {
		h.pool = pkt.PoolOf(h.Sim)
	}
	return h.pool
}

// Conn is one TCP connection between two hosts.
type Conn struct {
	opts Options
	cli  Endpoint
	srv  Endpoint
}

// NewConn creates a connection in the closed state. Call Open to perform
// the handshake; data queued before the handshake completes is sent once
// the connection is established.
func NewConn(opts Options) *Conn {
	if opts.Client == nil || opts.Server == nil {
		panic("tcp: Options.Client and Options.Server are required")
	}
	c := &Conn{opts: opts}
	c.cli.init(c, opts.Client, opts.Server.ID, true)
	c.srv.init(c, opts.Server, opts.Client.ID, false)
	c.cli.peer = &c.srv
	c.srv.peer = &c.cli
	return c
}

// Client returns the initiating endpoint.
func (c *Conn) Client() *Endpoint { return &c.cli }

// Server returns the passive endpoint.
func (c *Conn) Server() *Endpoint { return &c.srv }

// Flow returns the connection's flow identifier.
func (c *Conn) Flow() uint64 { return c.opts.Flow }

// Open starts the three-way handshake.
func (c *Conn) Open() {
	c.cli.sendSYN()
}

// OpenInstant marks both ends established without exchanging SYNs, for
// long-running bulk flows where handshake timing is irrelevant.
func (c *Conn) OpenInstant() {
	c.cli.established = true
	c.srv.established = true
	c.cli.trySend()
	c.srv.trySend()
}

// Endpoint is one side of a connection.
type Endpoint struct {
	conn   *Conn
	host   *Host
	peerID pkt.NodeID
	peer   *Endpoint
	client bool

	established bool
	synSent     bool
	synEv       sim.EventRef

	// Sender state.
	sndBuf    int64 // application bytes queued, excluding sent
	infinite  bool
	nextSeq   int64 // next new byte to send
	una       int64 // oldest unacknowledged byte
	cwnd      float64
	ssthresh  float64
	dupacks   int
	sacked    spanSet // receiver-reported coverage above una
	inRec     bool
	rtoRec    bool  // recovery entered via RTO (slow-start rebuild)
	recover   int64 // recovery point: exit when una passes it
	lostBelow int64 // unSACKed bytes below this are treated as lost
	rtxNext   int64 // next hole to retransmit in this recovery epoch
	rtoEv     sim.EventRef
	rto       sim.Time
	srtt      sim.Time
	rttvar    sim.Time
	rttSeq    int64    // segment being timed
	rttAt     sim.Time // when it was sent
	peerWnd   int64

	// Cubic state (segments / seconds domain).
	wmaxSeg    float64
	epochStart sim.Time
	cubicK     float64
	originSeg  float64
	// HyStart state.
	baseRTT sim.Time

	// Receiver state.
	rcvNxt   int64
	ooo      spanSet
	unacked  int
	delackEv sim.EventRef

	// Application hooks and counters.
	// OnReceive, if set, is invoked after in-order delivery advances,
	// with the cumulative byte count.
	OnReceive func(total int64)
	rcvTotal  int64

	// Stats.
	SentSegs    int64
	Retransmits int64
	Timeouts    int64
	SentBytes   int64 // includes retransmissions
}

func (e *Endpoint) init(c *Conn, h *Host, peer pkt.NodeID, client bool) {
	e.conn = c
	e.host = h
	e.peerID = peer
	e.client = client
	e.cwnd = InitCwnd
	e.ssthresh = 1 << 30
	e.rto = InitRTO
	e.peerWnd = DefaultWnd
}

// TotalReceived reports the cumulative in-order bytes delivered.
func (e *Endpoint) TotalReceived() int64 { return e.rcvTotal }

// SendData queues n application bytes for transmission.
func (e *Endpoint) SendData(n int64) {
	if n <= 0 {
		return
	}
	e.sndBuf += n
	e.trySend()
}

// SendForever puts the endpoint in bulk mode: unlimited data to send.
func (e *Endpoint) SendForever() {
	e.infinite = true
	e.trySend()
}

func (e *Endpoint) now() sim.Time { return e.host.Sim.Now() }

// newPacket builds an outgoing segment. When sack is non-nil its spans
// ride along as SACK blocks, highest (freshest) first, at most maxSackBlk.
//
//hj17:hotpath
func (e *Endpoint) newPacket(size int, flags pkt.TCPFlag, seq, ack int64, sack *spanSet) *pkt.Packet {
	srcPort, dstPort := 50000, 5001
	if !e.client {
		srcPort, dstPort = 5001, 50000
	}
	pool := e.host.pktPool()
	h := pool.GetHeader()
	h.Flags, h.Seq, h.Ack = flags, seq, ack
	h.Window = DefaultWnd
	h.SrcPort, h.DstPort = srcPort, dstPort
	if sack != nil {
		for i := len(sack.s) - 1; i >= 0 && len(h.Sack) < maxSackBlk; i-- {
			h.Sack = append(h.Sack, pkt.SackBlock{Start: sack.s[i].start, End: sack.s[i].end})
		}
	}
	p := pool.Get()
	p.Size = size
	p.Proto = pkt.ProtoTCP
	p.Src = e.host.ID
	p.Dst = e.peerID
	p.Flow = e.conn.opts.Flow
	p.AC = e.conn.opts.AC
	p.Created = e.now()
	p.TCP = h
	return p
}

func (e *Endpoint) sendSYN() {
	e.synSent = true
	p := e.newPacket(60, pkt.SYN, 0, 0, nil)
	e.host.Out(p)
	e.synEv = e.host.Sim.After(e.rto, func() {
		if !e.established {
			e.rto = minT(2*e.rto, MaxRTO)
			e.sendSYN()
		}
	})
}

// Input processes a packet arriving at this endpoint.
//
//hj17:hotpath
func (e *Endpoint) Input(p *pkt.Packet) {
	h := p.TCP
	if h == nil {
		return
	}
	if h.Flags&pkt.SYN != 0 {
		if h.Flags&pkt.ACK != 0 {
			// SYN-ACK at the client.
			if !e.established {
				e.established = true
				e.rto = InitRTO
				if e.synEv.Valid() {
					e.host.Sim.Cancel(e.synEv)
				}
				e.host.Out(e.newPacket(HeaderLen, pkt.ACK, e.nextSeq, e.rcvNxt, nil))
				e.trySend()
			}
		} else if !e.established {
			// SYN at the server: reply SYN-ACK, established on the final
			// ACK (or first data).
			e.host.Out(e.newPacket(60, pkt.SYN|pkt.ACK, 0, 0, nil))
		}
		return
	}
	if !e.established {
		e.established = true
		e.rto = InitRTO
	}

	dataLen := int64(p.Size - HeaderLen)
	if dataLen > 0 {
		e.receiveData(h.Seq, dataLen)
	}
	if h.Flags&pkt.ACK != 0 {
		e.processAck(h, dataLen > 0)
	}
}

// receiveData handles an incoming data segment.
//
//hj17:hotpath
func (e *Endpoint) receiveData(seq, n int64) {
	end := seq + n
	switch {
	case end <= e.rcvNxt:
		e.sendAck() // pure duplicate
		return
	case seq > e.rcvNxt:
		e.ooo.insert(seq, end)
		e.sendAck() // out of order: immediate dup-ack with SACK
		return
	}
	e.rcvNxt = end
	// Absorb contiguous out-of-order coverage.
	e.ooo.insert(seq, end)
	for _, sp := range e.ooo.s {
		if sp.start <= e.rcvNxt && sp.end > e.rcvNxt {
			e.rcvNxt = sp.end
		}
	}
	e.ooo.pruneBelow(e.rcvNxt)
	e.rcvTotal = e.rcvNxt
	if e.OnReceive != nil {
		e.OnReceive(e.rcvTotal)
	}
	// Delayed ACK: every second segment, while holes exist, or after
	// DelAckTime.
	e.unacked++
	if e.unacked >= 2 || !e.ooo.empty() {
		e.sendAck()
		return
	}
	if !e.delackEv.Valid() {
		e.delackEv = e.host.Sim.AfterCall(DelAckTime, delackFire, e)
	}
}

// delackFire is the delayed-ACK timer's trampoline.
//
//hj17:hotpath
func delackFire(v any) {
	e := v.(*Endpoint)
	e.delackEv = sim.EventRef{}
	if e.unacked > 0 {
		e.sendAck()
	}
}

//hj17:hotpath
func (e *Endpoint) sendAck() {
	e.unacked = 0
	if e.delackEv.Valid() {
		e.host.Sim.Cancel(e.delackEv)
		e.delackEv = sim.EventRef{}
	}
	e.host.Out(e.newPacket(HeaderLen, pkt.ACK, e.nextSeq, e.rcvNxt, &e.ooo))
}

// processAck handles the acknowledgement fields of an incoming segment.
//
//hj17:hotpath
func (e *Endpoint) processAck(h *pkt.TCPHeader, withData bool) {
	ack := h.Ack
	e.peerWnd = h.Window
	if ack > e.nextSeq {
		ack = e.nextSeq
	}
	sackedBefore := e.sacked.bytes()
	for _, b := range h.Sack {
		if b.End > ack {
			s := b.Start
			if s < ack {
				s = ack
			}
			e.sacked.insert(s, b.End)
		}
	}
	newSack := e.sacked.bytes() > sackedBefore

	switch {
	case ack > e.una:
		acked := ack - e.una
		e.una = ack
		e.sacked.pruneBelow(ack)
		if e.rtxNext < ack {
			e.rtxNext = ack
		}
		e.sampleRTT(ack)
		if e.inRec {
			if e.rtoRec {
				// Slow-start rebuild after a timeout.
				e.growCwnd(acked)
			}
			if ack >= e.recover {
				e.exitRecovery()
			}
		} else {
			e.dupacks = 0
			e.growCwnd(acked)
		}
		e.resetRTO()
	case ack == e.una && e.inflight() > 0 && (newSack || !withData):
		e.dupacks++
		if e.inRec {
			// Fresh SACK info during recovery extends the lost region.
			if m := e.sacked.max(); m > e.lostBelow && !e.rtoRec {
				e.lostBelow = m
			}
		} else if e.dupacks >= 3 || e.sacked.bytes() > 3*MSS {
			e.enterRecovery()
		}
	}
	e.trySend()
}

// growCwnd applies the congestion-avoidance/slow-start increase.
//
//hj17:hotpath
func (e *Endpoint) growCwnd(acked int64) {
	if e.cwnd < e.ssthresh {
		// Slow start with appropriate byte counting.
		e.cwnd += float64(minI64(acked, 2*MSS))
		return
	}
	e.cubicUpdate()
}

// cubicUpdate advances cwnd toward the RFC 8312 cubic curve.
func (e *Endpoint) cubicUpdate() {
	now := e.now()
	if e.epochStart == 0 {
		e.epochStart = now
		cur := e.cwnd / MSS
		if cur < e.wmaxSeg {
			e.cubicK = math.Cbrt(e.wmaxSeg * (1 - cubicBeta) / cubicC)
			e.originSeg = e.wmaxSeg
		} else {
			e.cubicK = 0
			e.originSeg = cur
		}
	}
	t := (now - e.epochStart + e.srtt).Seconds()
	// d*d*d is math.Pow(d, 3) bit for bit outside the subnormal range
	// (TestCubeMatchesPow).
	d := t - e.cubicK
	target := e.originSeg + cubicC*(d*d*d)
	// TCP-friendly region (RFC 8312 §4.2): never grow slower than a Reno
	// flow would from the same loss event.
	if rtt := e.srtt.Seconds(); rtt > 0 {
		west := e.wmaxSeg*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/rtt)
		if west > target {
			target = west
		}
	}
	cur := e.cwnd / MSS
	if target > cur {
		// Approach the curve: one MSS per cwnd/(target-cwnd) ACKs.
		e.cwnd += MSS * (target - cur) / cur
	} else {
		e.cwnd += MSS / (100 * cur) // minimal growth while at/above the curve
	}
}

// onLoss records a congestion event for cubic and computes the new
// ssthresh.
func (e *Endpoint) onLoss() {
	curSeg := e.cwnd / MSS
	if curSeg < e.wmaxSeg {
		// Fast convergence.
		e.wmaxSeg = curSeg * (1 + cubicBeta) / 2
	} else {
		e.wmaxSeg = curSeg
	}
	e.epochStart = 0
	e.ssthresh = maxF(e.cwnd*cubicBeta, 2*MSS)
}

func (e *Endpoint) enterRecovery() {
	e.onLoss()
	e.cwnd = e.ssthresh
	e.inRec = true
	e.rtoRec = false
	e.recover = e.nextSeq
	e.lostBelow = e.sacked.max()
	e.rtxNext = e.una
}

func (e *Endpoint) exitRecovery() {
	if !e.rtoRec {
		e.cwnd = e.ssthresh
	}
	e.inRec = false
	e.rtoRec = false
	e.dupacks = 0
}

//hj17:hotpath
func (e *Endpoint) sampleRTT(ack int64) {
	if e.rttSeq == 0 || ack < e.rttSeq {
		return
	}
	r := e.now() - e.rttAt
	e.rttSeq = 0
	if e.srtt == 0 {
		e.srtt = r
		e.rttvar = r / 2
		e.baseRTT = r
	} else {
		d := e.srtt - r
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + r) / 8
	}
	if r < e.baseRTT || e.baseRTT == 0 {
		e.baseRTT = r
	}
	e.rto = e.srtt + 4*e.rttvar
	if e.rto < MinRTO {
		e.rto = MinRTO
	}
	if e.rto > MaxRTO {
		e.rto = MaxRTO
	}
	// HyStart delay heuristic: leave slow start when the RTT has grown
	// measurably above the connection's base RTT.
	if e.cwnd < e.ssthresh && e.cwnd > 16*MSS {
		thresh := clampT(e.baseRTT/8, 4*sim.Millisecond, 16*sim.Millisecond)
		if r > e.baseRTT+thresh {
			e.ssthresh = e.cwnd
		}
	}
}

func (e *Endpoint) inflight() int64 { return e.nextSeq - e.una }

// pipe estimates bytes in flight for SACK recovery (RFC 6675 simplified):
// outstanding bytes minus SACKed minus holes considered lost and not yet
// retransmitted this epoch.
//
//hj17:hotpath
func (e *Endpoint) pipe() int64 {
	p := e.inflight() - e.sacked.bytes()
	if e.inRec {
		seq := e.rtxNext
		for {
			start, n := e.sacked.nextGap(seq, e.lostBelow, MSS)
			if n <= 0 {
				break
			}
			p -= n
			seq = start + n
		}
	}
	if p < 0 {
		p = 0
	}
	return p
}

// available reports bytes the application still wants delivered.
func (e *Endpoint) available() int64 {
	if e.infinite {
		return 1 << 40
	}
	return e.sndBuf
}

// trySend emits segments while the congestion and receive windows allow.
// In recovery, holes below the highest SACK are retransmitted first.
//
//hj17:hotpath
func (e *Endpoint) trySend() {
	if !e.established {
		return
	}
	wnd := minI64(int64(e.cwnd), e.peerWnd)
	for i := 0; i < 1024; i++ { // bound per-event work
		if e.pipe()+MSS > wnd {
			break
		}
		if e.inRec {
			if start, n := e.sacked.nextGap(e.rtxNext, e.lostBelow, MSS); n > 0 {
				e.emitSeg(start, n, true)
				e.rtxNext = start + n
				continue
			}
		}
		if e.available() <= 0 {
			break
		}
		n := minI64(MSS, e.available())
		e.emitSeg(e.nextSeq, n, false)
		e.nextSeq += n
		if !e.infinite {
			e.sndBuf -= n
		}
		if e.rttSeq == 0 {
			e.rttSeq = e.nextSeq
			e.rttAt = e.now()
		}
	}
	if e.inflight() > 0 && !e.rtoEv.Valid() {
		e.resetRTO()
	}
}

//hj17:hotpath
func (e *Endpoint) emitSeg(seq, n int64, retrans bool) {
	p := e.newPacket(int(n)+HeaderLen, pkt.ACK, seq, e.rcvNxt, &e.ooo)
	e.unacked = 0
	e.SentSegs++
	e.SentBytes += n
	if retrans {
		e.Retransmits++
	}
	e.host.Out(p)
}

// resetRTO restarts the retransmission timer at now+rto, or disarms it
// when nothing is outstanding.
//
//hj17:hotpath
func (e *Endpoint) resetRTO() {
	if e.rtoEv.Valid() {
		e.host.Sim.Cancel(e.rtoEv)
		e.rtoEv = sim.EventRef{}
	}
	if e.inflight() == 0 {
		return
	}
	e.rtoEv = e.host.Sim.AfterCall(e.rto, rtoFire, e)
}

// rtoFire is the RTO event's trampoline.
//
//hj17:hotpath
func rtoFire(v any) {
	e := v.(*Endpoint)
	e.rtoEv = sim.EventRef{}
	e.onRTO()
}

// onRTO handles a retransmission timeout.
func (e *Endpoint) onRTO() {
	if e.inflight() == 0 {
		return
	}
	e.Timeouts++
	e.onLoss()
	e.cwnd = MSS
	e.dupacks = 0
	// Enter RTO recovery: everything outstanding is presumed lost (minus
	// what SACK already covers) and is retransmitted as cwnd rebuilds.
	e.inRec = true
	e.rtoRec = true
	e.recover = e.nextSeq
	e.lostBelow = e.nextSeq
	e.rtxNext = e.una
	e.rttSeq = 0 // Karn's rule
	e.rto = minT(2*e.rto, MaxRTO)
	e.trySend()
	e.resetRTO()
}

func (e *Endpoint) String() string {
	role := "server"
	if e.client {
		role = "client"
	}
	return fmt.Sprintf("tcp-%s(flow=%d)", role, e.conn.opts.Flow)
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

func clampT(v, lo, hi sim.Time) sim.Time {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
