// Package codel implements the CoDel active queue management algorithm
// (Nichols & Jacobson, RFC 8289), in the dequeue-callback form used by
// FQ-CoDel and by the paper's integrated WiFi queueing structure.
//
// Each managed queue carries a Vars state block; Dequeue pulls packets,
// dropping from the head while the control law says the queue's standing
// delay exceeds target.
package codel

import (
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Params are the CoDel control parameters. The paper's WiFi adaptation
// switches a station's parameters to Slow() when its expected throughput
// drops below 12 Mbps (§3.1.1).
type Params struct {
	Target   sim.Time // acceptable standing queue delay
	Interval sim.Time // sliding window for the minimum sojourn time
}

// mtu is the backlog in bytes at or below which a queue is never dropped
// from: one full-size Ethernet frame, the Linux fq_codel default.
const mtu = 1514

// Default returns the standard CoDel parameters: 5 ms target, 100 ms
// interval.
func Default() Params {
	return Params{Target: 5 * sim.Millisecond, Interval: 100 * sim.Millisecond}
}

// Slow returns the paper's slow-station parameters: 50 ms target, 300 ms
// interval (§3.1.1).
func Slow() Params {
	return Params{Target: 50 * sim.Millisecond, Interval: 300 * sim.Millisecond}
}

// Vars is per-queue CoDel state. The zero value is ready to use.
type Vars struct {
	Count         uint32   // packets dropped since entering drop state
	LastCount     uint32   // Count at the last drop-state entry
	Dropping      bool     // in drop state
	FirstAbove    sim.Time // when sojourn first exceeded target (0 = not above)
	DropNext      sim.Time // next drop time while dropping
	LastDropCount int      // total drops, for stats
}

// controlLaw computes the next drop time: interval / sqrt(count), served
// from the Newton-refined inverse-sqrt cache (see invsqrt.go) for the
// counts that occur in practice.
//
//hj17:hotpath
func controlLaw(t sim.Time, interval sim.Time, count uint32) sim.Time {
	if count <= invSqrtCacheSize {
		return t + sim.Time(float64(interval)*invSqrtTab[count])
	}
	return t + sim.Time(float64(interval)/math.Sqrt(float64(count)))
}

// shouldDrop updates the sojourn-tracking state for packet p dequeued at
// now and reports whether the control law wants it dropped.
//
//hj17:hotpath
func (v *Vars) shouldDrop(p *pkt.Packet, q *pkt.Queue, pa Params, now sim.Time) bool {
	sojourn := now - p.Enqueued
	if sojourn < pa.Target || q.Bytes() <= mtu {
		v.FirstAbove = 0
		return false
	}
	if v.FirstAbove == 0 {
		v.FirstAbove = now + pa.Interval
		return false
	}
	return now >= v.FirstAbove
}

// Dequeue removes the next packet from q at virtual time now, applying the
// CoDel drop law. Dropped packets are passed to drop (which must not
// re-queue them). It returns nil when the queue is empty.
//
//hj17:hotpath
func (v *Vars) Dequeue(q *pkt.Queue, pa Params, now sim.Time, drop func(*pkt.Packet)) *pkt.Packet {
	p := q.Pop()
	if p == nil {
		v.Dropping = false
		return nil
	}
	okToDrop := v.shouldDrop(p, q, pa, now)

	if v.Dropping {
		switch {
		case !okToDrop:
			v.Dropping = false
		case now >= v.DropNext:
			for now >= v.DropNext && v.Dropping {
				v.Count++
				v.LastDropCount++
				drop(p)
				p = q.Pop()
				if p == nil {
					v.Dropping = false
					return nil
				}
				if !v.shouldDrop(p, q, pa, now) {
					v.Dropping = false
				} else {
					v.DropNext = controlLaw(v.DropNext, pa.Interval, v.Count)
				}
			}
		}
		return p
	}

	if okToDrop {
		drop(p)
		v.LastDropCount++
		p = q.Pop()
		if p == nil {
			v.Dropping = false
			return nil
		}
		v.Dropping = true
		// Resume at a higher drop rate if we were dropping recently
		// (within 16 intervals), per the RFC's suggestion.
		if v.Count > 2 && now-v.DropNext < 16*pa.Interval {
			v.Count = v.Count - 2
		} else {
			v.Count = 1
		}
		v.LastCount = v.Count
		v.DropNext = controlLaw(now, pa.Interval, v.Count)
	}
	return p
}
