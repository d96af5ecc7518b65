package tcp

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// countingPipe wraps pipeNet with packet counters.
type countingPipe struct {
	*pipeNet
	dataSegs, acks int
}

func newCounting(seed uint64, delay sim.Time) *countingPipe {
	return &countingPipe{pipeNet: newPipe(seed, delay)}
}

func (p *countingPipe) connectCounting(c *Conn) {
	pool := pkt.PoolOf(p.s)
	p.a.Out = func(q *pkt.Packet) {
		if q.Size > HeaderLen {
			p.dataSegs++
		}
		p.s.After(p.delay, func() { c.Server().Input(q); pool.Put(q) })
	}
	p.b.Out = func(q *pkt.Packet) {
		if q.Size == HeaderLen {
			p.acks++
		}
		p.s.After(p.delay, func() { c.Client().Input(q); pool.Put(q) })
	}
}

// TestSlowStartDoubling: with no loss, cwnd must grow exponentially in
// slow start (roughly doubling per RTT).
func TestSlowStartDoubling(t *testing.T) {
	p := newPipe(1, 20*sim.Millisecond) // 40 ms RTT
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connect(c)
	c.OpenInstant()
	c.Client().SendForever()
	p.s.RunUntil(100 * sim.Millisecond) // ~2.5 RTT
	w1 := c.Client().cwnd
	p.s.RunUntil(200 * sim.Millisecond)
	w2 := c.Client().cwnd
	if w2 < w1*2.5 {
		t.Errorf("slow start too slow: %.0f -> %.0f over ~2.5 RTTs", w1, w2)
	}
}

// TestHyStartExit: sending through a finite queue, HyStart
// must end slow start on delay increase, before a catastrophic overshoot.
func TestHyStartExit(t *testing.T) {
	// A 2 Mbps bottleneck emulated by releasing one packet per 6 ms.
	s := sim.New(1)
	a := &Host{Sim: s, ID: 1}
	b := &Host{Sim: s, ID: 2}
	c := NewConn(Options{Client: a, Server: b, Flow: 1})
	var queue []*pkt.Packet
	busy := false
	var pump func()
	pump = func() {
		if len(queue) == 0 {
			busy = false
			return
		}
		busy = true
		q := queue[0]
		queue = queue[1:]
		s.After(6*sim.Millisecond, func() {
			c.Server().Input(q)
			pump()
		})
	}
	a.Out = func(q *pkt.Packet) {
		queue = append(queue, q)
		if !busy {
			pump()
		}
	}
	b.Out = func(q *pkt.Packet) { s.After(time5ms, func() { c.Client().Input(q) }) }
	c.OpenInstant()
	c.Client().SendForever()
	p95 := 0
	for i := 0; i < 400; i++ {
		s.RunUntil(sim.Time(i) * 10 * sim.Millisecond)
		if len(queue) > p95 {
			p95 = len(queue)
		}
		if c.Client().Timeouts > 0 {
			break
		}
	}
	// Without HyStart the queue would grow to thousands before first
	// loss; with it, slow start ends when delay rises.
	e := c.Client()
	if e.cwnd >= e.ssthresh && e.Timeouts == 0 && e.Retransmits == 0 {
		// Left slow start without any loss: HyStart did its job.
		return
	}
	t.Logf("note: slow start ended by loss (queue peak %d, retr %d)", p95, e.Retransmits)
}

const time5ms = 5 * sim.Millisecond

// TestDelayedAcks: a receiver must send roughly one ACK per two full
// segments during bulk transfer.
func TestDelayedAcks(t *testing.T) {
	p := newCounting(1, 5*sim.Millisecond)
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connectCounting(c)
	c.OpenInstant()
	c.Client().SendData(1 << 20)
	p.s.RunUntil(20 * sim.Second)
	if got := c.Server().TotalReceived(); got != 1<<20 {
		t.Fatalf("received %d", got)
	}
	ratio := float64(p.dataSegs) / float64(p.acks)
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("data/ack ratio = %.2f (%d segs, %d acks), want ~2", ratio, p.dataSegs, p.acks)
	}
}

// TestReceiveWindowLimit: the advertised window must cap throughput at
// wnd/RTT. Over a 500 ms RTT the lossless pipe would carry more than
// DefaultWnd per round trip, so the window binds.
func TestReceiveWindowLimit(t *testing.T) {
	p := newPipe(1, 250*sim.Millisecond) // 500 ms RTT
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connect(c)
	c.OpenInstant()
	c.Client().SendForever()
	p.s.RunUntil(10 * sim.Second)
	got := float64(c.Server().TotalReceived())
	// Ceiling: 6 MiB per 500 ms = ~126 MB in 10 s. Allow headroom.
	maxBytes := float64(DefaultWnd) / 0.5 * 10 * 1.1
	if got > maxBytes {
		t.Errorf("receive window not honoured: %d bytes in 10 s (cap ~%.0f)", int64(got), maxBytes)
	}
	if got < maxBytes/3 {
		t.Errorf("window-limited transfer too slow: %d bytes", int64(got))
	}
}

// TestCubicReachesHighBDP: after slow start, cubic must keep growing to
// fill a large pipe within reasonable time.
func TestCubicReachesHighBDP(t *testing.T) {
	p := newPipe(1, 10*sim.Millisecond)
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connect(c)
	c.OpenInstant()
	c.Client().SendForever()
	p.s.RunUntil(30 * sim.Second)
	// Unconstrained path: the only limits are rcvwnd and growth speed.
	if got := c.Server().TotalReceived(); got < 100<<20 {
		t.Errorf("only %d MB in 30 s on a clean 20 ms path", got>>20)
	}
	// The pipe releases every packet it delivers, so what the world
	// holds stays bounded by the windows in flight.
	if live := pkt.PoolOf(p.s).Stats().Live(); live > 2*DefaultWnd/MSS {
		t.Errorf("%d packets live after 30 s, want at most %d (two windows of segments)",
			live, 2*DefaultWnd/MSS)
	}
}

// TestBidirectionalTransfer: both directions carry bulk data at once.
func TestBidirectionalTransfer(t *testing.T) {
	p := newPipe(3, 5*sim.Millisecond)
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connect(c)
	c.OpenInstant()
	c.Client().SendData(2 << 20)
	c.Server().SendData(2 << 20)
	p.s.RunUntil(60 * sim.Second)
	if c.Server().TotalReceived() != 2<<20 || c.Client().TotalReceived() != 2<<20 {
		t.Fatalf("bidir incomplete: %d / %d",
			c.Server().TotalReceived(), c.Client().TotalReceived())
	}
}

// TestSynLossRecovered: SYN retransmission after loss.
func TestSynLossRecovered(t *testing.T) {
	p := newPipe(2, 5*sim.Millisecond)
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	dropped := false
	p.drop = func(q *pkt.Packet) bool {
		if q.TCP != nil && q.TCP.Flags&pkt.SYN != 0 && q.TCP.Flags&pkt.ACK == 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.connect(c)
	c.Open()
	c.Client().SendData(1000)
	p.s.RunUntil(5 * sim.Second)
	if !dropped {
		t.Fatal("test harness broken: SYN not dropped")
	}
	if c.Server().TotalReceived() != 1000 {
		t.Fatalf("handshake did not recover: %d bytes", c.Server().TotalReceived())
	}
}

// TestSmallWrites: many small application writes coalesce correctly.
func TestSmallWrites(t *testing.T) {
	p := newPipe(4, 2*sim.Millisecond)
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connect(c)
	c.OpenInstant()
	total := int64(0)
	for i := 0; i < 100; i++ {
		c.Client().SendData(100)
		total += 100
	}
	p.s.RunUntil(5 * sim.Second)
	if c.Server().TotalReceived() != total {
		t.Fatalf("received %d of %d", c.Server().TotalReceived(), total)
	}
}

// TestOnReceiveCallback: cumulative totals reported monotonically.
func TestOnReceiveCallback(t *testing.T) {
	p := newPipe(6, 2*sim.Millisecond)
	c := NewConn(Options{Client: p.a, Server: p.b, Flow: 1})
	p.connect(c)
	var last int64 = -1
	mono := true
	c.Server().OnReceive = func(total int64) {
		if total <= last {
			mono = false
		}
		last = total
	}
	c.OpenInstant()
	c.Client().SendData(500000)
	p.s.RunUntil(10 * sim.Second)
	if !mono {
		t.Error("OnReceive totals not strictly increasing")
	}
	if last != 500000 {
		t.Errorf("last callback total %d, want 500000", last)
	}
}
