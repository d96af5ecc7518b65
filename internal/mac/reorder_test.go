package mac

import (
	"slices"
	"testing"

	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestReorderPropertyUnderLoss drives many loss rates and checks the
// end-to-end conservation and ordering properties: across every
// (loss, seed) combination, delivered + AQM-dropped + retry-dropped
// accounts for every packet, and delivery order is monotone (the reorder
// buffer hides MAC retransmissions; AQM drops create gaps, never swaps).
func TestReorderPropertyUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.1, 0.3} {
		for seed := uint64(1); seed <= 3; seed++ {
			s := sim.New(seed)
			env := NewEnv(s)
			ap := mustNode(t, env, 1, "ap", Config{Scheme: SchemeFQMAC, PerMPDULoss: loss})
			var got []int64
			sta := mustNode(t, env, 10, "sta", Config{Scheme: SchemeFIFO})
			sta.Deliver = func(p *pkt.Packet) { got = append(got, p.SeqNo) }
			ap.Deliver = func(*pkt.Packet) {}
			ap.AddStation(sta, phy.MCS(3, true))
			sta.AddStation(ap, phy.MCS(3, true))

			const n = 400
			for i := 0; i < n; i++ {
				p := &pkt.Packet{Size: 1500, Proto: pkt.ProtoUDP, Src: 1, Dst: 10,
					Flow: 1, AC: pkt.ACBE, SeqNo: int64(i)}
				ap.Input(p)
			}
			s.RunUntil(60 * sim.Second)
			dropped := ap.FqStats().CodelDrops() + ap.RetryDrops + ap.InputDrops
			if len(got)+dropped != n {
				t.Fatalf("loss=%.2f seed=%d: delivered %d + dropped %d != %d",
					loss, seed, len(got), dropped, n)
			}
			prev := int64(-1)
			for i, v := range got {
				if v <= prev {
					t.Fatalf("loss=%.2f seed=%d: order violated at %d (seq %d after %d)",
						loss, seed, i, v, prev)
				}
				prev = v
			}
		}
	}
}

// TestReorderTimeoutSkipsPermanentHole: when the transmitter permanently
// drops an MPDU (retry limit), the receiver's buffer must release the
// subsequent packets after the hole timeout rather than stalling forever.
func TestReorderTimeoutSkipsPermanentHole(t *testing.T) {
	s := sim.New(1)
	env := NewEnv(s)
	// Retry limit 0 effectively: limit 1 + high loss targeted — instead
	// construct the gap directly through the reorder API.
	ap := mustNode(t, env, 1, "ap", Config{Scheme: SchemeFQMAC})
	src := mustNode(t, env, 99, "src", Config{Scheme: SchemeFIFO})
	var got []int
	ap.Deliver = func(p *pkt.Packet) { got = append(got, p.MacSeq) }
	rs := ap.reorderSession(ap.AddStation(src, phy.MCS(3, true)), pkt.ACBK)
	mk := func(seq int) *pkt.Packet { return &pkt.Packet{MacSeq: seq, Size: 100} }
	ap.reorderDeliver(rs, []*pkt.Packet{mk(1), mk(2)})
	// Seq 3 never arrives; 4 and 5 buffer.
	ap.reorderDeliver(rs, []*pkt.Packet{mk(4), mk(5)})
	if len(got) != 2 {
		t.Fatalf("buffered packets leaked: %v", got)
	}
	s.RunUntil(reorderTimeout * 2)
	if len(got) != 4 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("hole not skipped: %v", got)
	}
}

// TestReorderSessionsPerSender: each sender's frames run through its own
// reorder session on the receiver's Station entry for it, so a hole in one
// client's sequence space holds back only that client's packets at the AP.
func TestReorderSessionsPerSender(t *testing.T) {
	s := sim.New(1)
	env := NewEnv(s)
	ap := mustNode(t, env, 1, "ap", Config{Scheme: SchemeFQMAC})
	a := mustNode(t, env, 10, "a", Config{Scheme: SchemeFIFO})
	b := mustNode(t, env, 11, "b", Config{Scheme: SchemeFIFO})
	ap.AddStation(a, phy.MCS(3, true))
	ap.AddStation(b, phy.MCS(3, true))
	type rx struct {
		src pkt.NodeID
		seq int
	}
	var got []rx
	ap.Deliver = func(p *pkt.Packet) { got = append(got, rx{p.Src, p.MacSeq}) }
	mk := func(src pkt.NodeID, seq int) *pkt.Packet {
		return &pkt.Packet{Src: src, Dst: 1, MacSeq: seq, Size: 100, AC: pkt.ACBE}
	}
	// a's seq 2 is lost: 3 waits behind the hole.
	ap.receiveAggregate(a, pkt.ACBE, []*pkt.Packet{mk(10, 1), mk(10, 3)}, sim.Millisecond)
	// b's numbering is its own; a shared session would buffer 5 and 6
	// behind a's hole at 2.
	ap.receiveAggregate(b, pkt.ACBE, []*pkt.Packet{mk(11, 5), mk(11, 6)}, sim.Millisecond)
	want := []rx{{10, 1}, {11, 5}, {11, 6}}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if rs := ap.Station(10).reorder[pkt.ACBE]; rs == nil || len(rs.buf) != 1 {
		t.Fatalf("a's session does not hold seq 3: %+v", rs)
	}
	if rs := ap.Station(11).reorder[pkt.ACBE]; rs == nil || len(rs.buf) != 0 || rs.timer.Valid() {
		t.Fatalf("b's session holds packets or a timer: %+v", rs)
	}
	s.RunUntil(reorderTimeout * 2)
	if want = append(want, rx{10, 3}); !slices.Equal(got, want) {
		t.Fatalf("after the hole timeout delivered %v, want %v", got, want)
	}
}

// TestReceiveFromUnassociatedPanics: frames travel only between
// associated peers, so a sender with no Station entry is a model bug.
func TestReceiveFromUnassociatedPanics(t *testing.T) {
	env := NewEnv(sim.New(1))
	ap := mustNode(t, env, 1, "ap", Config{Scheme: SchemeFQMAC})
	stranger := mustNode(t, env, 99, "stranger", Config{Scheme: SchemeFIFO})
	ap.Deliver = func(*pkt.Packet) {}
	defer func() {
		if recover() == nil {
			t.Fatal("receiving from an unassociated node did not panic")
		}
	}()
	ap.receiveAggregate(stranger, pkt.ACBE, []*pkt.Packet{{MacSeq: 1, Size: 100}}, sim.Millisecond)
}

// TestEDCAQuantitativeShares: under saturation, VO's shorter AIFS and
// CWmin must win it a clearly larger share of transmission opportunities
// than BK on the same node.
func TestEDCAQuantitativeShares(t *testing.T) {
	r := newRig(t, Config{Scheme: SchemeFQMAC}, phy.MCS(7, true))
	stopVO := r.s.Ticker(300*sim.Microsecond, func() {
		p := dataPkt(10, 1000, 1)
		p.AC = pkt.ACVO
		r.ap.Input(p)
	})
	stopBK := r.s.Ticker(300*sim.Microsecond, func() {
		p := dataPkt(10, 1000, 2)
		p.AC = pkt.ACBK
		r.ap.Input(p)
	})
	r.s.RunUntil(3 * sim.Second)
	stopVO()
	stopBK()
	var vo, bk int
	for _, p := range r.received[10] {
		if p.AC == pkt.ACVO {
			vo++
		} else {
			bk++
		}
	}
	if vo <= bk {
		t.Errorf("VO delivered %d <= BK %d under saturation", vo, bk)
	}
}
