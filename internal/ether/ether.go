// Package ether models the wired segment of the testbed: the Gigabit
// Ethernet hop between the traffic server and the access point, with
// configurable propagation delay (the paper's VoIP experiments add 5 ms
// and 50 ms of baseline one-way delay).
package ether

import (
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Link is a full-duplex point-to-point Gigabit link. Each direction
// serialises packets at GigabitRate and then delays them by the one-way
// propagation time.
type Link struct {
	sim   *sim.Sim
	delay sim.Time // one-way propagation delay

	aToB, bToA half

	// DeliverA and DeliverB receive packets arriving at each end.
	DeliverA func(*pkt.Packet)
	DeliverB func(*pkt.Packet)

	// Shared delivery trampolines, built once so the per-packet
	// scheduling path allocates no closures.
	deliverACall func(any)
	deliverBCall func(any)
}

type half struct {
	busyUntil sim.Time
	Bytes     int64
	Packets   int64
}

// GigabitRate is 1 Gbps in bits/second.
const GigabitRate = 1e9

// NewLink creates a link with the given one-way propagation delay.
func NewLink(s *sim.Sim, delay sim.Time) *Link {
	l := &Link{sim: s, delay: delay}
	l.deliverACall = func(v any) { l.DeliverA(v.(*pkt.Packet)) }
	l.deliverBCall = func(v any) { l.DeliverB(v.(*pkt.Packet)) }
	return l
}

// SendAToB transmits p from the A side toward B.
func (l *Link) SendAToB(p *pkt.Packet) { l.send(&l.aToB, p, l.deliverBCall) }

// SendBToA transmits p from the B side toward A.
func (l *Link) SendBToA(p *pkt.Packet) { l.send(&l.bToA, p, l.deliverACall) }

func (l *Link) send(h *half, p *pkt.Packet, deliver func(any)) {
	now := l.sim.Now()
	start := h.busyUntil
	if start < now {
		start = now
	}
	txTime := sim.Time(float64(p.Size*8) / GigabitRate * 1e9)
	h.busyUntil = start + txTime
	h.Bytes += int64(p.Size)
	h.Packets++
	l.sim.AtCall(h.busyUntil+l.delay, deliver, p)
}
