// Package qdisc models the Linux queueing-discipline layer that sits above
// the WiFi driver (the top box of the paper's Figure 2): the Qdisc
// interface and PFIFO, the kernel default. The FQ-CoDel qdisc used as the
// paper's second baseline lives in package fqcodel.
//
// In the paper's FQ-MAC and Airtime-FQ configurations this layer is
// bypassed entirely; the MAC model then feeds packets straight into the
// integrated per-TID structure (package mactid).
package qdisc

import "repro/internal/pkt"

// Qdisc is a queueing discipline instance for one network interface.
type Qdisc interface {
	// Enqueue accepts a packet, returning false when the packet was
	// dropped (queue overlimit).
	Enqueue(p *pkt.Packet) bool
	// Dequeue returns the next packet to hand to the driver, or nil when
	// the discipline is empty.
	Dequeue() *pkt.Packet
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

// Enqueue implements Qdisc.
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

// Dequeue implements Qdisc.
//
//hj17:hotpath
func (f *PFIFO) Dequeue() *pkt.Packet { return f.q.Pop() }

// Len implements Qdisc.
func (f *PFIFO) Len() int { return f.q.Len() }

// Drops implements Qdisc.
func (f *PFIFO) Drops() int { return f.drops }
