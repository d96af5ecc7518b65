package mac

import (
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
	var got []int
	ap.Deliver = func(p *pkt.Packet) { got = append(got, p.MacSeq) }
	key := reorderKey{src: 99, tid: 0}
	mk := func(seq int) *pkt.Packet { return &pkt.Packet{MacSeq: seq, Size: 100} }
	ap.reorderDeliver(key, []*pkt.Packet{mk(1), mk(2)})
	// Seq 3 never arrives; 4 and 5 buffer.
	ap.reorderDeliver(key, []*pkt.Packet{mk(4), mk(5)})
	if len(got) != 2 {
		t.Fatalf("buffered packets leaked: %v", got)
	}
	s.RunUntil(reorderTimeout * 2)
	if len(got) != 4 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("hole not skipped: %v", got)
	}
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
