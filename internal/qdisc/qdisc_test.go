package qdisc

import (
	"testing"

	"repro/internal/pkt"
)

func TestPFIFOOrder(t *testing.T) {
	f := new(PFIFO)
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
	var f PFIFO
	for i := 0; i < pfifoLimit; i++ {
		if !f.Enqueue(&pkt.Packet{Size: 100}) {
			t.Fatalf("premature drop at %d", i)
		}
	}
	if f.Enqueue(&pkt.Packet{Size: 100}) {
		t.Fatal("over-limit enqueue accepted")
	}
	if f.Drops() != 1 || f.Len() != pfifoLimit {
		t.Fatalf("drops=%d len=%d", f.Drops(), f.Len())
	}
}
