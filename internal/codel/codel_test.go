package codel

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func fill(q *pkt.Queue, n int, at sim.Time) {
	for i := 0; i < n; i++ {
		p := &pkt.Packet{Size: 1500, Enqueued: at}
		q.Push(p)
	}
}

func TestNoDropBelowTarget(t *testing.T) {
	var q pkt.Queue
	var v Vars
	pa := Default()
	fill(&q, 100, 0)
	drops := 0
	// Sojourn = 2 ms < 5 ms target: never drop.
	now := 2 * sim.Millisecond
	for {
		p := v.Dequeue(&q, pa, now, func(*pkt.Packet) { drops++ })
		if p == nil {
			break
		}
	}
	if drops != 0 {
		t.Fatalf("dropped %d below target", drops)
	}
}

func TestDropsWhenAboveTargetForInterval(t *testing.T) {
	var q pkt.Queue
	var v Vars
	pa := Default()
	drops := 0
	drop := func(*pkt.Packet) { drops++ }
	// Keep a standing queue with sojourn 50 ms and dequeue one packet
	// every 5 ms. After one interval (100 ms) drops must begin.
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		fill(&q, 2, now-50*sim.Millisecond)
		v.Dequeue(&q, pa, now, drop)
		now += 5 * sim.Millisecond
	}
	if drops == 0 {
		t.Fatal("no drops despite standing queue above target")
	}
	if !v.Dropping && drops < 2 {
		t.Fatal("control law did not enter drop state")
	}
}

func TestDropRateIncreases(t *testing.T) {
	var q pkt.Queue
	var v Vars
	pa := Default()
	var dropTimes []sim.Time
	now := sim.Time(0)
	for i := 0; i < 3000; i++ {
		fill(&q, 3, now-100*sim.Millisecond)
		v.Dequeue(&q, pa, now, func(*pkt.Packet) { dropTimes = append(dropTimes, now) })
		now += sim.Millisecond
	}
	if len(dropTimes) < 10 {
		t.Fatalf("too few drops to assess control law: %d", len(dropTimes))
	}
	// Inter-drop gaps must shrink (interval/sqrt(count)).
	first := dropTimes[2] - dropTimes[1]
	last := dropTimes[len(dropTimes)-1] - dropTimes[len(dropTimes)-2]
	if last >= first {
		t.Errorf("drop rate did not increase: first gap %v, last gap %v", first, last)
	}
}

func TestMTUExemption(t *testing.T) {
	var q pkt.Queue
	var v Vars
	pa := Default()
	// A single packet (<= MTU bytes) must never be dropped, no matter how
	// old — the standing-aggregate exemption.
	q.Push(&pkt.Packet{Size: 1000, Enqueued: 0})
	drops := 0
	p := v.Dequeue(&q, pa, 10*sim.Second, func(*pkt.Packet) { drops++ })
	if p == nil || drops != 0 {
		t.Fatalf("MTU exemption violated: p=%v drops=%d", p, drops)
	}
}

func TestEmptyQueue(t *testing.T) {
	var q pkt.Queue
	var v Vars
	v.Dropping = true
	if v.Dequeue(&q, Default(), 0, func(*pkt.Packet) {}) != nil {
		t.Fatal("dequeue from empty queue returned a packet")
	}
	if v.Dropping {
		t.Fatal("drop state not cleared on empty queue")
	}
}

func TestSlowParams(t *testing.T) {
	s := Slow()
	if s.Target != 50*sim.Millisecond || s.Interval != 300*sim.Millisecond {
		t.Fatalf("Slow() = %+v, want 50ms/300ms", s)
	}
	d := Default()
	if d.Target != 5*sim.Millisecond || d.Interval != 100*sim.Millisecond {
		t.Fatalf("Default() = %+v, want 5ms/100ms", d)
	}
}

// TestSlowParamsTolerant: under identical sojourn pressure the slow-station
// parameters must drop far less than the defaults (§3.1.1's rationale).
func TestSlowParamsTolerant(t *testing.T) {
	run := func(pa Params) int {
		var q pkt.Queue
		var v Vars
		drops := 0
		now := sim.Time(0)
		fill(&q, 3, now-40*sim.Millisecond)
		for i := 0; i < 1000; i++ {
			// Steady-state: one in, one out; head sojourn stays ~44 ms.
			fill(&q, 1, now-40*sim.Millisecond)
			v.Dequeue(&q, pa, now, func(*pkt.Packet) { drops++ })
			now += 2 * sim.Millisecond
		}
		return drops
	}
	defDrops := run(Default())
	slowDrops := run(Slow())
	if slowDrops != 0 {
		t.Errorf("slow params dropped %d at 40 ms sojourn (below its 50 ms target)", slowDrops)
	}
	if defDrops == 0 {
		t.Error("default params did not drop at 40 ms sojourn")
	}
}

func TestDropStateExitsWhenLoadClears(t *testing.T) {
	var q pkt.Queue
	var v Vars
	pa := Default()
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		fill(&q, 3, now-100*sim.Millisecond)
		v.Dequeue(&q, pa, now, func(*pkt.Packet) {})
		now += sim.Millisecond
	}
	if !v.Dropping {
		t.Fatal("expected drop state under heavy load")
	}
	for q.Pop() != nil {
	}
	// Fresh traffic with low sojourn: drop state must end.
	fill(&q, 1, now)
	v.Dequeue(&q, pa, now+sim.Millisecond, func(*pkt.Packet) {})
	if v.Dropping {
		t.Fatal("drop state persisted after load cleared")
	}
}
