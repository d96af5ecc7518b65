package ether

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestPropagationDelay(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 5*sim.Millisecond)
	var got sim.Time
	l.DeliverB = func(*pkt.Packet) { got = s.Now() }
	l.SendAToB(&pkt.Packet{Size: 1500})
	s.Run(0)
	// 1500 B at 1 Gbps = 12 us serialisation + 5 ms propagation.
	want := 5*sim.Millisecond + 12*sim.Microsecond
	if got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
}

func TestSerialisationQueueing(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 0) // 12 us per 1500-byte packet
	var arrivals []sim.Time
	l.DeliverB = func(*pkt.Packet) { arrivals = append(arrivals, s.Now()) }
	for i := 0; i < 3; i++ {
		l.SendAToB(&pkt.Packet{Size: 1500})
	}
	s.Run(0)
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	per := sim.Time(float64(1500*8) / GigabitRate * 1e9)
	for i, a := range arrivals {
		want := per * sim.Time(i+1)
		if a != want {
			t.Fatalf("packet %d at %v, want %v", i, a, want)
		}
	}
}

func TestFullDuplex(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 0)
	var aGot, bGot sim.Time
	l.DeliverA = func(*pkt.Packet) { aGot = s.Now() }
	l.DeliverB = func(*pkt.Packet) { bGot = s.Now() }
	l.SendAToB(&pkt.Packet{Size: 1500})
	l.SendBToA(&pkt.Packet{Size: 1500})
	s.Run(0)
	// The directions must not serialise against each other.
	if aGot != bGot {
		t.Fatalf("duplex directions interfered: %v vs %v", aGot, bGot)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 0)
	l.DeliverB = func(*pkt.Packet) {}
	l.SendAToB(&pkt.Packet{Size: 100})
	l.SendAToB(&pkt.Packet{Size: 200})
	s.Run(0)
	if l.aToB.Packets != 2 || l.aToB.Bytes != 300 {
		t.Fatalf("counters: %d pkts %d bytes", l.aToB.Packets, l.aToB.Bytes)
	}
}
