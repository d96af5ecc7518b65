package mac

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestBatchedGrantAccounting: the single completion pass must charge
// exactly what the receivers saw. Each receiver's Deliver hook and its
// own RxAirtime counter, and the medium's grant count, are ground truth
// kept outside the transmitter's station counters; every number the
// completion pass maintains has to match them.
func TestBatchedGrantAccounting(t *testing.T) {
	for _, scheme := range Schemes {
		r := newRig(t, Config{Scheme: scheme}, phy.MCS(15, true), phy.MCS(3, true))

		const n = 400
		for i := 0; i < n; i++ {
			for j, dst := range []pkt.NodeID{10, 11} {
				size := 200 + (i*37+j*13)%1300
				r.ap.Input(dataPkt(dst, size, uint64(1+i%7)))
			}
		}
		r.s.RunUntil(3 * sim.Second)

		var aggs int64
		var air sim.Time
		for i, dst := range []pkt.NodeID{10, 11} {
			sta := r.ap.Station(dst)
			got := r.received[dst]
			var gotBytes int64
			for _, p := range got {
				gotBytes += int64(p.Size)
			}
			if len(got) < n/2 {
				t.Errorf("%v sta %d: only %d of %d delivered; workload too light to exercise batching",
					scheme, dst, len(got), n)
			}
			if sta.TxPackets != int64(len(got)) {
				t.Errorf("%v sta %d: TxPackets %d != delivered %d",
					scheme, dst, sta.TxPackets, len(got))
			}
			if sta.TxBytes != gotBytes {
				t.Errorf("%v sta %d: TxBytes %d != delivered bytes %d",
					scheme, dst, sta.TxBytes, gotBytes)
			}
			// Nothing is lost, so every MPDU sent was delivered.
			if sta.AggPackets != int64(len(got)) {
				t.Errorf("%v sta %d: AggPackets %d != delivered %d",
					scheme, dst, sta.AggPackets, len(got))
			}
			if rx := r.stas[i].Station(1).RxAirtime; sta.TxAirtime != rx {
				t.Errorf("%v sta %d: TxAirtime %v != receiver's RxAirtime %v",
					scheme, dst, sta.TxAirtime, rx)
			}
			aggs += sta.AggCount
			air += sta.TxAirtime
		}
		// The AP is the only transmitter and has drained, so every grant
		// is one completed aggregate and the medium was busy exactly for
		// the airtime charged.
		if m := r.env.Medium; int64(m.Grants) != aggs || m.BusyTime != air {
			t.Errorf("%v: medium granted %d for %v, stations count %d aggregates for %v",
				scheme, m.Grants, m.BusyTime, aggs, air)
		}
	}
}

// TestBatchedGrantLossyParity: with loss the completion pass draws each
// MPDU's fate; its counters must still reconcile with what the receiver
// actually got plus the retry-limit and CoDel drops, and with the medium.
// At 80% loss about 0.8^11 of the MPDUs exhaust the retry limit of 10.
func TestBatchedGrantLossyParity(t *testing.T) {
	cfg := Config{Scheme: SchemeAirtimeFQ, PerMPDULoss: 0.8}
	r := newRig(t, cfg, phy.MCS(7, true))
	const n = 300
	for i := 0; i < n; i++ {
		r.ap.Input(dataPkt(10, 1000, uint64(1+i%5)))
	}
	// Retry-limit drops leave reorder holes the receiver releases one
	// 100 ms timeout at a time, so the drain tail is long; run to quiescence.
	r.s.RunUntil(5 * sim.Second)
	r.s.Run(0)
	sta := r.ap.Station(10)
	got := r.received[10]
	var gotBytes int64
	for _, p := range got {
		gotBytes += int64(p.Size)
	}
	if sta.TxPackets != int64(len(got)) || sta.TxBytes != gotBytes {
		t.Errorf("TxPackets %d, TxBytes %d != delivered %d, %d bytes",
			sta.TxPackets, sta.TxBytes, len(got), gotBytes)
	}
	// Packets waiting behind the retries grow old enough for CoDel to
	// drop some before they are ever sent.
	codelDrops := int64(r.ap.FqStats().Drops())
	if total := sta.TxPackets + sta.DropPackets + codelDrops; total != n {
		t.Errorf("delivered %d + retry-dropped %d + CoDel-dropped %d != offered %d",
			sta.TxPackets, sta.DropPackets, codelDrops, n)
	}
	if sta.DropPackets == 0 || r.ap.RetryDrops != int(sta.DropPackets) {
		t.Errorf("DropPackets %d, RetryDrops %d: want equal and nonzero under 80%% loss",
			sta.DropPackets, r.ap.RetryDrops)
	}
	// A retry-dropped MPDU was lost retryLimit+1 times and a delivered
	// one at most retryLimit times, so the MPDUs sent and not delivered
	// number retryLimit+1 per drop plus at most retryLimit per delivered
	// packet.
	lo := (retryLimit + 1) * sta.DropPackets
	if lost := sta.AggPackets - sta.TxPackets; lost < lo || lost > lo+retryLimit*sta.TxPackets {
		t.Errorf("AggPackets %d - delivered %d = %d lost, inconsistent with %d drops",
			sta.AggPackets, sta.TxPackets, lost, sta.DropPackets)
	}
	// Aggregates with no MPDU through reach the receiver not at all, so
	// its RxAirtime is a lower bound; the medium's busy time is exact.
	m := r.env.Medium
	if rx := r.stas[0].Station(1).RxAirtime; rx <= 0 || rx > sta.TxAirtime {
		t.Errorf("receiver's RxAirtime %v outside (0, TxAirtime %v]", rx, sta.TxAirtime)
	}
	if int64(m.Grants) != sta.AggCount || m.BusyTime != sta.TxAirtime {
		t.Errorf("medium granted %d for %v, station counts %d aggregates for %v",
			m.Grants, m.BusyTime, sta.AggCount, sta.TxAirtime)
	}
}
