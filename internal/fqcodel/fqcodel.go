// Package fqcodel implements the FQ-CoDel queueing discipline (RFC 8290):
// a deficit round-robin scheduler over hashed flow queues, each managed by
// CoDel, with the new-flow (sparse flow) optimisation and a global limit
// that drops from the longest queue.
//
// This is the qdisc-layer baseline ("FQ-CoDel" in the paper's evaluation).
// The paper's MAC structure (package mactid) is the same design with
// per-TID scheduling lists, so an instance here is one mactid.Fq viewed
// through a single TID. With one TID no packet ever takes the cross-TID
// overflow queue, and the two behave identically step for step.
package fqcodel

import (
	"repro/internal/codel"
	"repro/internal/mactid"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Config holds FQ-CoDel parameters. The DRR quantum is mactid's (1514
// bytes) and every queue runs CoDel with codel.Default(), as Linux
// fq_codel does out of the box.
type Config struct {
	Flows    int // number of hash queues, a power of two (default 1024)
	Limit    int // global packet limit (default 10240)
	Clock    func() sim.Time
	DropHook func(*pkt.Packet) // invoked for every dropped packet (may be nil)
}

// FQCoDel is an instance of the discipline. Create with New.
type FQCoDel struct {
	cfg Config
	fq  *mactid.Fq
	tid *mactid.TID
}

// New creates an FQ-CoDel instance.
func New(cfg Config) *FQCoDel {
	if cfg.Clock == nil {
		panic("fqcodel: Config.Clock is required")
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 10240 // Linux fq_codel's default; mactid's is 8192
	}
	fq := mactid.New(mactid.Config{Flows: cfg.Flows, Limit: cfg.Limit, DropHook: cfg.DropHook})
	return &FQCoDel{cfg: cfg, fq: fq, tid: fq.NewTID()}
}

// Enqueue implements qdisc.Qdisc.
//
//hj17:hotpath
func (f *FQCoDel) Enqueue(p *pkt.Packet) bool { return f.tid.Enqueue(p, f.cfg.Clock()) }

// Dequeue implements qdisc.Qdisc, applying the RFC 8290 scheduling loop.
//
//hj17:hotpath
func (f *FQCoDel) Dequeue() *pkt.Packet { return f.tid.Dequeue(f.cfg.Clock(), codel.Default()) }

// Len implements qdisc.Qdisc.
func (f *FQCoDel) Len() int { return f.fq.Len() }

// Drops implements qdisc.Qdisc.
func (f *FQCoDel) Drops() int { return f.fq.Drops() }

// CodelDrops reports packets dropped by the AQM control law.
func (f *FQCoDel) CodelDrops() int { return f.fq.CodelDrops() }

// OverlimitDrops reports packets dropped by the global limit.
func (f *FQCoDel) OverlimitDrops() int { return f.fq.OverlimitDrops() }

// SparseDequeues reports packets served from the new-flow (sparse) list.
func (f *FQCoDel) SparseDequeues() int { return f.fq.SparseDequeues() }
