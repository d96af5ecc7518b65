package traffic

import (
	"repro/internal/pkt"
	"repro/internal/sim"
)

// pingFlowBase namespaces the flow ids used by pingers.
const pingFlowBase = 0x1C30_0000

// UDPSize is the size in bytes of every datagram a UDPSource sends.
const UDPSize = 1500

// UDPSource sends a constant-bitrate unidirectional UDP stream of
// UDPSize-byte datagrams, standing in for the paper's iperf UDP floods.
type UDPSource struct {
	host *Host
	dst  pkt.NodeID
	flow uint64
	ac   pkt.AC
	gap  sim.Time
	seq  int64
	stop func()

	Sent      int64
	SentBytes int64
}

// UDPConfig configures a UDP source.
type UDPConfig struct {
	Dst     pkt.NodeID
	Flow    uint64
	RateBps float64 // offered load in bits/s
	AC      pkt.AC
}

// NewUDPSource creates (but does not start) a CBR source.
func NewUDPSource(h *Host, cfg UDPConfig) *UDPSource {
	if cfg.RateBps <= 0 {
		panic("traffic: UDP source needs a positive rate")
	}
	gap := sim.Time(float64(UDPSize*8) / cfg.RateBps * 1e9)
	return &UDPSource{host: h, dst: cfg.Dst, flow: cfg.Flow, ac: cfg.AC, gap: gap}
}

// Start begins transmission.
func (u *UDPSource) Start() {
	if u.stop != nil {
		return
	}
	u.stop = u.host.Sim.Ticker(u.gap, u.sendOne)
}

// Stop halts transmission.
func (u *UDPSource) Stop() {
	if u.stop != nil {
		u.stop()
		u.stop = nil
	}
}

func (u *UDPSource) sendOne() {
	u.seq++
	u.Sent++
	u.SentBytes += UDPSize
	p := u.host.pool.Get()
	p.Size = UDPSize
	p.Proto = pkt.ProtoUDP
	p.Src = u.host.ID
	p.Dst = u.dst
	p.Flow = u.flow
	p.AC = u.ac
	p.Created = u.host.Sim.Now()
	p.SeqNo = u.seq
	u.host.Out(p)
}

// UDPSink receives a UDP stream, tracking goodput and loss.
type UDPSink struct {
	host *Host

	Received  int64
	RcvdBytes int64
	MaxSeq    int64
	FirstAt   sim.Time
	LastAt    sim.Time
}

// NewUDPSink registers a sink for the given flow on h.
func NewUDPSink(h *Host, flow uint64) *UDPSink {
	s := &UDPSink{host: h}
	h.Register(flow, s.receive)
	return s
}

func (s *UDPSink) receive(p *pkt.Packet) {
	now := s.host.Sim.Now()
	if s.Received == 0 {
		s.FirstAt = now
	}
	s.LastAt = now
	s.Received++
	s.RcvdBytes += int64(p.Size)
	if p.SeqNo > s.MaxSeq {
		s.MaxSeq = p.SeqNo
	}
}

// GoodputBps reports achieved goodput over the measured interval.
func (s *UDPSink) GoodputBps() float64 {
	d := s.LastAt - s.FirstAt
	if d <= 0 {
		return 0
	}
	return float64(s.RcvdBytes*8) / d.Seconds()
}

// LossPct reports the loss fraction in percent, based on the highest
// sequence number seen.
func (s *UDPSink) LossPct() float64 {
	if s.MaxSeq == 0 {
		return 0
	}
	lost := s.MaxSeq - s.Received
	if lost < 0 {
		lost = 0
	}
	return 100 * float64(lost) / float64(s.MaxSeq)
}
