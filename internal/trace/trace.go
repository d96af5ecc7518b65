// Package trace provides a lightweight structured event log for the
// simulated stack: packet lifecycle events (enqueue, drop at enqueue,
// end of an air transmission, delivery) recorded into a bounded ring
// buffer with per-kind counters. Nodes emit into a Log when one is attached; tracing
// is zero-cost when disabled.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds, in lifecycle order.
const (
	Enqueue Kind = iota // packet entered a node's queueing structure
	// Drop is a drop at enqueue: no route, a full PFIFO qdisc or a
	// mactid.Fq's global limit. CoDel and retry-limit drops are not
	// traced.
	Drop
	TxDone  // aggregate finished (success or collision)
	Deliver // packet handed to a node's upper layer
	numKinds
)

var kindNames = [numKinds]string{"enq", "drop", "txdone", "deliver"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	Node pkt.NodeID // where it happened
	Peer pkt.NodeID // counterparty (destination station, sender, ...)
	AC   pkt.AC
	// Size is in bytes for a packet, in frames for an aggregate, and in
	// packets for an "fq-overlimit" drop, one event per enqueue.
	Size int
	// Note qualifies a drop with its cause ("no-route", "qdisc-full",
	// "fq-overlimit") and a transmission with its outcome ("ok",
	// "collision").
	Note string
}

func (e Event) String() string {
	return fmt.Sprintf("%12v %-8s node=%-3d peer=%-3d %s size=%-5d %s",
		e.At, e.Kind, e.Node, e.Peer, e.AC, e.Size, e.Note)
}

// Log is a bounded ring of events plus counters. Create with NewLog.
type Log struct {
	ring   []Event
	next   int
	filled bool
	counts [numKinds]int64
}

// NewLog creates a log retaining the most recent capacity events.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Log{ring: make([]Event, capacity)}
}

// Add records an event.
func (l *Log) Add(e Event) {
	if l == nil {
		return
	}
	l.counts[e.Kind]++
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.filled = true
	}
}

// Count reports occurrences of a kind since creation.
func (l *Log) Count(k Kind) int64 {
	if l == nil {
		return 0
	}
	return l.counts[k]
}

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	if !l.filled {
		out := make([]Event, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Dump renders the retained events, most recent last, capped at max lines
// (0 = all).
func (l *Log) Dump(max int) string {
	evs := l.Events()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: enq=%d drop=%d txdone=%d deliver=%d (showing %d)\n",
		l.Count(Enqueue), l.Count(Drop), l.Count(TxDone), l.Count(Deliver), len(evs))
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
