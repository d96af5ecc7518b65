package traffic

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// wire joins two hosts with a fixed-delay lossless pipe.
func wire(s *sim.Sim, delay sim.Time) (*Host, *Host) {
	a := NewHost(s, 1, nil)
	b := NewHost(s, 2, nil)
	a.Out = func(p *pkt.Packet) { s.After(delay, func() { b.Deliver(p) }) }
	b.Out = func(p *pkt.Packet) { s.After(delay, func() { a.Deliver(p) }) }
	return a, b
}

func TestPingRTT(t *testing.T) {
	s := sim.New(1)
	a, _ := wire(s, 5*sim.Millisecond)
	p := NewPinger(a, PingerConfig{Dst: 2, Interval: 100 * sim.Millisecond, ID: 1})
	p.Start()
	s.RunUntil(1050 * sim.Millisecond)
	p.Stop()
	if p.Sent != 10 || p.Received != 10 {
		t.Fatalf("sent=%d received=%d, want 10/10", p.Sent, p.Received)
	}
	if med := p.RTT.Median(); med != 10 {
		t.Fatalf("median RTT = %v ms, want 10", med)
	}
}

func TestDuplicatePingerIDPanics(t *testing.T) {
	s := sim.New(1)
	a, _ := wire(s, 0)
	NewPinger(a, PingerConfig{Dst: 2, ID: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPinger(a, PingerConfig{Dst: 2, ID: 7})
}

func TestUDPRateAndSink(t *testing.T) {
	s := sim.New(1)
	a, b := wire(s, sim.Millisecond)
	src := NewUDPSource(a, UDPConfig{Dst: 2, Flow: 5, RateBps: 12e6, AC: pkt.ACBE})
	sink := NewUDPSink(b, 5)
	src.Start()
	s.RunUntil(2 * sim.Second)
	src.Stop()
	s.RunUntil(2*sim.Second + 10*sim.Millisecond) // drain in-flight packets
	// 12 Mbps for 2 s = 2000 packets of 1500 B.
	if src.Sent < 1990 || src.Sent > 2010 {
		t.Fatalf("sent %d packets, want ~2000", src.Sent)
	}
	if sink.Received != src.Sent {
		t.Fatalf("sink got %d of %d", sink.Received, src.Sent)
	}
	if g := sink.GoodputBps(); g < 11.5e6 || g > 12.5e6 {
		t.Fatalf("goodput %.1f Mbps, want ~12", g/1e6)
	}
	if sink.LossPct() != 0 {
		t.Fatalf("loss %.1f%%, want 0", sink.LossPct())
	}
}

func TestUDPLossAccounting(t *testing.T) {
	s := sim.New(1)
	a := NewHost(s, 1, nil)
	b := NewHost(s, 2, nil)
	n := 0
	a.Out = func(p *pkt.Packet) {
		n++
		if n%5 == 0 { // drop every 5th
			return
		}
		b.Deliver(p)
	}
	src := NewUDPSource(a, UDPConfig{Dst: 2, Flow: 1, RateBps: 12e6})
	sink := NewUDPSink(b, 1)
	src.Start()
	s.RunUntil(1 * sim.Second)
	if l := sink.LossPct(); l < 15 || l > 25 {
		t.Fatalf("loss %.1f%%, want ~20", l)
	}
}

func TestVoIPStreamAndMOS(t *testing.T) {
	s := sim.New(1)
	a, b := wire(s, 10*sim.Millisecond)
	src := NewVoIPSource(a, 2, 9, pkt.ACVO)
	sink := NewVoIPSink(b, 9)
	src.Start()
	s.RunUntil(10 * sim.Second)
	src.Stop()
	if sink.Received < 495 {
		t.Fatalf("received %d frames, want ~500", sink.Received)
	}
	if sink.LossPct() != 0 {
		t.Fatalf("loss %.2f%%", sink.LossPct())
	}
	if mos := sink.MOS(); mos < 4.3 {
		t.Fatalf("MOS %.2f on a clean 10 ms path, want >= 4.3", mos)
	}
	m := sink.Metrics()
	if m.OneWayDelay < 9*sim.Millisecond || m.OneWayDelay > 11*sim.Millisecond {
		t.Fatalf("one-way delay %v, want ~10 ms", m.OneWayDelay)
	}
	if m.Jitter != 0 {
		t.Fatalf("jitter %v on a constant-delay path", m.Jitter)
	}
}

func TestUnclaimedCounting(t *testing.T) {
	s := sim.New(1)
	a, _ := wire(s, 0)
	a.Deliver(&pkt.Packet{Proto: pkt.ProtoUDP, Flow: 999})
	if a.Unclaimed != 1 {
		t.Fatalf("unclaimed = %d", a.Unclaimed)
	}
}

// TestReRegisterMidStream: Deliver remembers the previous flow's handler,
// so Register must invalidate that memo. A flow whose handler is replaced
// between two packets of one run reaches the new handler on the next one.
func TestReRegisterMidStream(t *testing.T) {
	s := sim.New(1)
	a, _ := wire(s, 0)
	pool := pkt.PoolOf(s)
	send := func() {
		p := pool.Get()
		p.Proto, p.Flow = pkt.ProtoUDP, 7
		a.Deliver(p)
	}
	var first, second int
	a.Register(7, func(*pkt.Packet) { first++ })
	send()
	send()
	a.Register(7, func(*pkt.Packet) { second++ })
	send()
	if first != 2 || second != 1 {
		t.Fatalf("old handler got %d packets, new handler %d; want 2 and 1", first, second)
	}
}

// webRig wires two hosts with TCP attachments over a symmetric pipe.
type webRig struct {
	s        *sim.Sim
	cli, srv *Host
	tc, ts   *tcp.Host
}

func newWebRig(delay sim.Time) *webRig {
	s := sim.New(1)
	cli, srv := wire(s, delay)
	return &webRig{
		s: s, cli: cli, srv: srv,
		tc: &tcp.Host{Sim: s, ID: 1, Out: func(p *pkt.Packet) { cli.Out(p) }},
		ts: &tcp.Host{Sim: s, ID: 2, Out: func(p *pkt.Packet) { srv.Out(p) }},
	}
}

func TestWebSmallPageFetch(t *testing.T) {
	r := newWebRig(5 * sim.Millisecond)
	wc := NewWebClient(WebConfig{
		Client: r.cli, Server: r.srv, TCPClient: r.tc, TCPServer: r.ts,
		Page: SmallPage, FlowBase: 1 << 30,
	})
	wc.Start()
	r.s.RunUntil(2 * sim.Second)
	wc.Stop()
	if wc.FetchesDone == 0 {
		t.Fatal("no fetches completed")
	}
	// Floor: DNS (1 RTT) + handshake (1 RTT) + request/response: >= 30 ms.
	if wc.PLT.Min() < 30 {
		t.Fatalf("PLT %.1f ms implausibly fast", wc.PLT.Min())
	}
	if wc.PLT.Max() > 1000 {
		t.Fatalf("PLT %.1f ms implausibly slow for 56 KB over a clean path", wc.PLT.Max())
	}
}

func TestWebLargePageFetch(t *testing.T) {
	r := newWebRig(5 * sim.Millisecond)
	wc := NewWebClient(WebConfig{
		Client: r.cli, Server: r.srv, TCPClient: r.tc, TCPServer: r.ts,
		Page: LargePage, FlowBase: 1 << 30,
	})
	wc.Start()
	r.s.RunUntil(30 * sim.Second)
	wc.Stop()
	if wc.FetchesDone == 0 {
		t.Fatal("no large-page fetches completed")
	}
	// Large page must take longer than small page.
	r2 := newWebRig(5 * sim.Millisecond)
	wc2 := NewWebClient(WebConfig{
		Client: r2.cli, Server: r2.srv, TCPClient: r2.tc, TCPServer: r2.ts,
		Page: SmallPage, FlowBase: 1 << 30,
	})
	wc2.Start()
	r2.s.RunUntil(30 * sim.Second)
	wc2.Stop()
	if wc.PLT.Median() <= wc2.PLT.Median() {
		t.Fatalf("large page (%.1f ms) not slower than small (%.1f ms)",
			wc.PLT.Median(), wc2.PLT.Median())
	}
}

func TestWebBackToBackFetches(t *testing.T) {
	r := newWebRig(2 * sim.Millisecond)
	wc := NewWebClient(WebConfig{
		Client: r.cli, Server: r.srv, TCPClient: r.tc, TCPServer: r.ts,
		Page: SmallPage, FlowBase: 1 << 30,
	})
	wc.Start()
	r.s.RunUntil(5 * sim.Second)
	wc.Stop()
	if wc.FetchesDone < 10 {
		t.Fatalf("only %d fetches in 5 s on a fast path", wc.FetchesDone)
	}
	if int64(wc.PLT.N()) != wc.FetchesDone {
		t.Fatalf("PLT samples %d != fetches %d", wc.PLT.N(), wc.FetchesDone)
	}
}
