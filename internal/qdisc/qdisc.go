// Package qdisc models the Linux queueing-discipline layer that sits above
// the WiFi driver (the top box of the paper's Figure 2): PFIFO, the
// kernel default, and the Qdisc view every discipline offers its
// observers. The FQ-CoDel qdisc used as the paper's second baseline is a
// one-TID mactid.Fq, which the MAC builds itself.
//
// In the paper's FQ-MAC and Airtime-FQ configurations this layer is
// bypassed entirely; the MAC model then feeds packets straight into the
// integrated per-TID structure (package mactid).
package qdisc

import "repro/internal/pkt"

// Qdisc is what a queueing discipline instance reports to its observers.
type Qdisc interface {
	// Len reports the number of packets held.
	Len() int
	// Drops reports the cumulative packets dropped.
	Drops() int
}

// PFIFO is the default Linux packet-FIFO discipline: a single tail-drop
// queue holding at most pfifoLimit packets. The zero value is ready to
// use.
type PFIFO struct {
	q     pkt.Queue
	drops int
}

// pfifoLimit is PFIFO's packet limit, the Linux default txqueuelen.
const pfifoLimit = 1000

// Enqueue accepts p, or reports false without storing it when the queue
// is full (tail drop); the caller then still owns p.
//
//hj17:hotpath
func (f *PFIFO) Enqueue(p *pkt.Packet) bool {
	if f.q.Len() >= pfifoLimit {
		f.drops++
		return false
	}
	f.q.Push(p)
	return true
}

// Dequeue returns the next packet to hand to the driver, or nil when the
// queue is empty.
//
//hj17:hotpath
func (f *PFIFO) Dequeue() *pkt.Packet { return f.q.Pop() }

// Len implements Qdisc.
func (f *PFIFO) Len() int { return f.q.Len() }

// Drops implements Qdisc.
func (f *PFIFO) Drops() int { return f.drops }
