package pkt

import (
	"testing"
	"testing/quick"
)

func mk(size int) *Packet { return &Packet{Size: size} }

func TestQueueFIFO(t *testing.T) {
	var q Queue
	a, b, c := mk(100), mk(200), mk(300)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Len() != 3 || q.Bytes() != 600 {
		t.Fatalf("len=%d bytes=%d, want 3/600", q.Len(), q.Bytes())
	}
	if q.Peek() != a {
		t.Fatal("peek != head")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != c {
		t.Fatal("FIFO order violated")
	}
	if q.Pop() != nil || !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestQueuePushFront(t *testing.T) {
	var q Queue
	a, b := mk(1), mk(2)
	q.Push(a)
	q.PushFront(b)
	if q.Pop() != b || q.Pop() != a {
		t.Fatal("PushFront did not prepend")
	}
	// PushFront on an empty queue sets both ends.
	q.PushFront(a)
	if q.Len() != 1 || q.Pop() != a || !q.Empty() {
		t.Fatal("PushFront on empty queue broken")
	}
}

func TestQueueDoubleEnqueuePanics(t *testing.T) {
	var q Queue
	p := mk(10)
	q.Push(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double enqueue")
		}
	}()
	q.Push(p)
}

func TestQueueDrain(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(mk(i + 1))
	}
	n := 0
	for q.Pop() != nil {
		n++
	}
	if n != 5 || !q.Empty() || q.Bytes() != 0 {
		t.Fatalf("drain left n=%d empty=%v bytes=%d", n, q.Empty(), q.Bytes())
	}
	if q.Pop() != nil {
		t.Fatal("Pop on an empty queue returned a packet")
	}
}

// TestQueueAccounting checks Len/Bytes stay consistent under arbitrary
// push/pop sequences.
func TestQueueAccounting(t *testing.T) {
	check := func(ops []uint8) bool {
		var q Queue
		wantLen, wantBytes := 0, 0
		for _, op := range ops {
			size := int(op%7) + 1
			switch {
			case op%3 != 0:
				q.Push(mk(size))
				wantLen++
				wantBytes += size
			default:
				if p := q.Pop(); p != nil {
					wantLen--
					wantBytes -= p.Size
				}
			}
			if q.Len() != wantLen || q.Bytes() != wantBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyDistinguishes(t *testing.T) {
	a := &Packet{Flow: 1, Src: 1, Dst: 2, Proto: ProtoTCP}
	b := &Packet{Flow: 1, Src: 2, Dst: 1, Proto: ProtoTCP} // reverse dir
	c := &Packet{Flow: 1, Src: 1, Dst: 2, Proto: ProtoUDP}
	d := &Packet{Flow: 2, Src: 1, Dst: 2, Proto: ProtoTCP}
	keys := map[uint64]bool{a.FlowKey(): true, b.FlowKey(): true, c.FlowKey(): true, d.FlowKey(): true}
	if len(keys) != 4 {
		t.Fatalf("flow keys collide: %d distinct of 4", len(keys))
	}
	if a.FlowKey() != a.FlowKey() {
		t.Fatal("FlowKey not stable")
	}
}

func TestDup(t *testing.T) {
	p := &Packet{Size: 99, Proto: ProtoTCP, TCP: &TCPHeader{Seq: 7}}
	var q Queue
	q.Push(p)
	d := p.Dup()
	if d.Size != 99 || d.TCP == p.TCP || d.TCP.Seq != 7 {
		t.Fatal("Dup did not deep-copy the TCP header")
	}
	// The dup must be enqueueable even though p is queued.
	var q2 Queue
	q2.Push(d)
}

func TestStringers(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" || ProtoICMP.String() != "ICMP" {
		t.Fatal("proto stringer wrong")
	}
	if Proto(99).String() == "" {
		t.Fatal("unknown proto stringer empty")
	}
	for ac, want := range map[AC]string{ACBK: "BK", ACBE: "BE", ACVI: "VI", ACVO: "VO"} {
		if ac.String() != want {
			t.Fatalf("AC %d stringer = %q, want %q", ac, ac.String(), want)
		}
	}
	if AC(9).String() == "" {
		t.Fatal("unknown AC stringer empty")
	}
}

// TestFlowKeyCachedAcrossRecycle: the memoised flow hash must match the
// uncached computation, survive Dup, and reset when the packet is
// recycled through the pool into a new identity.
func TestFlowKeyCachedAcrossRecycle(t *testing.T) {
	ref := func(flow uint64, src, dst NodeID, proto Proto) uint64 {
		h := flow
		h ^= uint64(src) * 0x9e3779b97f4a7c15
		h ^= uint64(dst) * 0xc2b2ae3d27d4eb4f
		h ^= uint64(proto) << 56
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		return h ^ (h >> 31)
	}

	pl := &Pool{enabled: true}
	p := pl.Get()
	p.Flow, p.Src, p.Dst, p.Proto = 7, 1, 2, ProtoUDP
	want := ref(7, 1, 2, ProtoUDP)
	if got := p.FlowKey(); got != want {
		t.Fatalf("FlowKey = %#x, want %#x", got, want)
	}
	if got := p.FlowKey(); got != want {
		t.Fatalf("cached FlowKey = %#x, want %#x", got, want)
	}
	if d := p.Dup(); d.FlowKey() != want {
		t.Fatal("Dup changed the flow key")
	}

	// Recycle into a different flow identity: the memo must not leak.
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not recycle the packet")
	}
	q.Flow, q.Src, q.Dst, q.Proto = 8, 3, 4, ProtoTCP
	if got, want := q.FlowKey(), ref(8, 3, 4, ProtoTCP); got != want {
		t.Fatalf("recycled FlowKey = %#x, want %#x (stale memo?)", got, want)
	}
}
