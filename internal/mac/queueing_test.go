package mac

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestQdiscBusyBits: the qdisc substrates skip an access category whose
// busy bit is clear, which is exact only if a clear bit always means an
// empty qdisc. A FIFO and an FQ-CoDel AP are overloaded with BE, VO and
// BK traffic to two slow stations, long enough for the FQ-CoDel qdisc's
// CoDel to drop internally, and the invariant is checked after every
// event. Once the traffic stops and the queues drain, every bit
// must be clear again.
func TestQdiscBusyBits(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFIFO, SchemeFQCoDel} {
		t.Run(scheme.String(), func(t *testing.T) {
			s := sim.New(1)
			env := NewEnv(s)
			ap := mustNode(t, env, 1, "ap", Config{Scheme: scheme})
			ap.Deliver = func(*pkt.Packet) {}
			for _, id := range []pkt.NodeID{10, 11} {
				sta := mustNode(t, env, id, "sta", Config{Scheme: SchemeFIFO})
				sta.Deliver = func(*pkt.Packet) {}
				ap.AddStation(sta, phy.MCS(1, false))
				sta.AddStation(ap, phy.MCS(1, false))
			}
			qs := ap.qd
			var sent int
			feed := func(ac pkt.AC, every sim.Time) func() {
				return s.Ticker(every, func() {
					sent++
					p := dataPkt(10+pkt.NodeID(sent%2), 1000, uint64(ac)+1)
					p.AC = ac
					ap.Input(p)
				})
			}
			stops := []func(){
				feed(pkt.ACBE, 100*sim.Microsecond),
				feed(pkt.ACVO, 300*sim.Microsecond),
				feed(pkt.ACBK, 200*sim.Microsecond),
			}
			var cleared, held [pkt.NumACs]int
			check := func() {
				for ac := pkt.AC(0); ac < pkt.NumACs; ac++ {
					n := ap.Qdisc(ac).Len()
					if qs.busy&(1<<ac) == 0 {
						cleared[ac]++
						if n != 0 {
							t.Fatalf("%v at %v: busy bit clear with %d packets in the qdisc",
								ac, s.Now(), n)
						}
					}
					if n > 0 {
						held[ac]++
					}
				}
			}
			for s.Now() < 500*sim.Millisecond && s.Step() {
				check()
			}
			for _, stop := range stops {
				stop()
			}
			for s.Step() {
				check()
			}
			if qs.busy != 0 {
				t.Fatalf("busy bits %04b left set after the queues drained", qs.busy)
			}
			for _, ac := range []pkt.AC{pkt.ACBE, pkt.ACVO, pkt.ACBK} {
				if held[ac] == 0 || cleared[ac] == 0 {
					t.Errorf("%v: qdisc held packets after %d events and its bit was clear after %d; "+
						"the run does not exercise both states", ac, held[ac], cleared[ac])
				}
			}
			if scheme == SchemeFQCoDel && ap.Qdisc(pkt.ACBE).Drops() == 0 {
				t.Error("the FQ-CoDel qdisc never dropped; the run does not exercise internal drops")
			}
		})
	}
}

// BenchmarkStationUplink measures a client's side of an ACK-clocked
// download: ACK-sized packets (IP + TCP headers with timestamps) from a
// FIFO client, through its PFIFO qdisc, driver FIFO and the medium, to an
// FQ-MAC AP that releases each one to the pool on delivery. The loop keeps
// 64 packets in flight. One op is one packet delivered at the AP; with
// -benchmem the steady state must show 0 allocs/op.
func BenchmarkStationUplink(b *testing.B) {
	const ackSize, window = 52, 64
	s := sim.New(1)
	env := NewEnv(s)
	pool := pkt.PoolOf(s)
	ap := mustNode(b, env, 1, "ap", Config{Scheme: SchemeFQMAC})
	sta := mustNode(b, env, 10, "sta", Config{Scheme: SchemeFIFO})
	delivered := 0
	ap.Deliver = func(p *pkt.Packet) {
		delivered++
		pool.Put(p)
	}
	sta.Deliver = pool.Put
	ap.AddStation(sta, phy.MCS(7, true))
	sta.AddStation(ap, phy.MCS(7, true))
	sent := 0
	run := func(n int) {
		for stop := delivered + n; delivered < stop; {
			for ; sent-delivered < window; sent++ {
				p := pool.Get()
				p.Size, p.Proto, p.AC = ackSize, pkt.ProtoTCP, pkt.ACBE
				p.Src, p.Dst, p.Flow = 10, 1, 1
				sta.Input(p)
			}
			s.Step()
		}
	}
	run(20000) // warm the pool, the aggregate shells and the event free list
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
