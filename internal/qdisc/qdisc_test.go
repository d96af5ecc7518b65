package qdisc

import (
	"testing"

	"repro/internal/pkt"
)

func TestPFIFOOrder(t *testing.T) {
	f := NewPFIFO(10)
	for i := 0; i < 5; i++ {
		p := &pkt.Packet{Size: 100, SeqNo: int64(i)}
		if !f.Enqueue(p) {
			t.Fatal("unexpected drop")
		}
	}
	for i := 0; i < 5; i++ {
		p := f.Dequeue()
		if p == nil || p.SeqNo != int64(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
	if f.Dequeue() != nil {
		t.Fatal("empty queue returned packet")
	}
}

func TestPFIFOTailDrop(t *testing.T) {
	f := NewPFIFO(3)
	for i := 0; i < 3; i++ {
		if !f.Enqueue(&pkt.Packet{Size: 100}) {
			t.Fatal("premature drop")
		}
	}
	if f.Enqueue(&pkt.Packet{Size: 100}) {
		t.Fatal("over-limit enqueue accepted")
	}
	if f.Drops() != 1 || f.Len() != 3 {
		t.Fatalf("drops=%d len=%d", f.Drops(), f.Len())
	}
}

func TestPFIFODefaultLimit(t *testing.T) {
	f := NewPFIFO(0)
	for i := 0; i < DefaultPFIFOLimit; i++ {
		if !f.Enqueue(&pkt.Packet{Size: 1}) {
			t.Fatalf("dropped below default limit at %d", i)
		}
	}
	if f.Enqueue(&pkt.Packet{Size: 1}) {
		t.Fatal("default limit not enforced")
	}
}
