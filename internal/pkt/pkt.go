// Package pkt defines the packet model shared by every layer of the
// simulated stack: traffic generators, TCP, qdiscs, the 802.11 MAC and the
// wired segment all exchange *Packet values.
//
// Packets follow a single-owner lifecycle: the producer obtains one from
// the world's Pool (PoolOf), ownership moves with the packet through
// queues and links, and whichever layer terminates the packet — final
// delivery at a host, a queue or AQM drop, a retry-limit drop — releases
// it back to the pool with Put. In steady state the hot path therefore
// allocates no packet memory at all.
package pkt

import (
	"fmt"

	"repro/internal/sim"
)

// Proto identifies the transport protocol a packet carries.
type Proto uint8

// Transport protocols used by the traffic models.
const (
	ProtoUDP Proto = iota
	ProtoTCP
	ProtoICMP
)

func (p Proto) String() string {
	switch p {
	case ProtoUDP:
		return "UDP"
	case ProtoTCP:
		return "TCP"
	case ProtoICMP:
		return "ICMP"
	}
	return fmt.Sprintf("Proto(%d)", uint8(p))
}

// AC is an 802.11e access category (EDCA precedence level).
type AC uint8

// Access categories in increasing priority order.
const (
	ACBK   AC = iota // background
	ACBE             // best effort
	ACVI             // video
	ACVO             // voice
	NumACs = 4
)

func (a AC) String() string {
	switch a {
	case ACBK:
		return "BK"
	case ACBE:
		return "BE"
	case ACVI:
		return "VI"
	case ACVO:
		return "VO"
	}
	return fmt.Sprintf("AC(%d)", uint8(a))
}

// NodeID identifies a node (station, AP or wired host) in the testbed.
type NodeID int

// TCPFlag bits for the TCP header model.
type TCPFlag uint8

// TCP flags used by the TCP model.
const (
	SYN TCPFlag = 1 << iota
	ACK
	FIN
	RST
)

// SackBlock is one SACK range [Start, End).
type SackBlock struct{ Start, End int64 }

// TCPHeader carries the fields the TCP model needs. Sequence numbers count
// bytes, as in real TCP.
type TCPHeader struct {
	Flags  TCPFlag
	Seq    int64 // first payload byte carried (or ISN for SYN)
	Ack    int64 // next byte expected, valid when Flags&ACK != 0
	Window int64 // advertised receive window, bytes
	Sack   []SackBlock
	SrcPort,
	DstPort int

	// sackNext links recycled headers inside a Pool's free list.
	sackNext *TCPHeader
}

// Packet is one L3 datagram moving through the simulation. Packets are
// allocated by traffic sources and never copied; layers annotate them in
// place.
type Packet struct {
	Size int // bytes on the wire at L3 (IP header included)

	Proto Proto
	Src   NodeID
	Dst   NodeID
	Flow  uint64 // flow hash input; distinct per transport flow
	AC    AC

	// Timestamps, filled as the packet progresses.
	Created  sim.Time // when the source generated it
	Enqueued sim.Time // when it entered the current queue (CoDel timestamp)

	Retries int // MAC retransmission count
	MacSeq  int // 802.11 sequence number within the TID (0 = unassigned)

	TCP *TCPHeader // nil unless Proto == ProtoTCP

	// EchoID/EchoSeq identify ICMP echo request/reply pairs.
	EchoID  int
	EchoSeq int
	IsReply bool

	// Payload sequence metadata for UDP/VoIP loss and jitter accounting.
	SeqNo int64

	// flowHash memoises FlowKey: the hash inputs (Flow, Src, Dst, Proto)
	// are fixed at creation, so the avalanche runs at most once per
	// packet no matter how many queues it crosses. Zero means "not yet
	// computed"; Pool.Get's zeroing resets it on recycle.
	flowHash uint64

	// next links packets inside an intrusive Queue (and, between Get and
	// Put, inside a Pool's free list).
	next *Packet
	// pooled marks packets currently resting in a Pool, to catch
	// double releases.
	pooled bool
	// fresh marks free-list packets a Get miss threaded that no Get has
	// handed out yet; PoolStats.News counts their first hand-outs.
	fresh bool
}

// Dup returns a copy of p with a fresh link field. TCP headers are
// deep-copied — including the SACK block list, which would otherwise
// share its backing array with the original — so the clone can be
// modified independently.
func (p *Packet) Dup() *Packet {
	q := *p
	q.next = nil
	q.pooled = false
	if p.TCP != nil {
		h := *p.TCP
		h.sackNext = nil
		if len(p.TCP.Sack) > 0 {
			h.Sack = append([]SackBlock(nil), p.TCP.Sack...)
		}
		q.TCP = &h
	}
	return &q
}

// FlowKey returns the value queues hash on: the transport flow identity.
// The result is computed once and cached on the packet (the identity
// fields never change after creation).
func (p *Packet) FlowKey() uint64 {
	if p.flowHash != 0 {
		return p.flowHash
	}
	// Mix src/dst/proto with the flow id so different directions and
	// protocols never collide trivially.
	h := p.Flow
	h ^= uint64(p.Src) * 0x9e3779b97f4a7c15
	h ^= uint64(p.Dst) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(p.Proto) << 56
	// Final avalanche (splitmix64 finaliser).
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	// A zero hash stays uncached (it re-derives to the same value), so
	// zero can serve as the "not computed" sentinel.
	p.flowHash = h
	return h
}

// Queue is an intrusive FIFO of packets. The zero value is an empty queue.
type Queue struct {
	head, tail *Packet
	len        int
	bytes      int
}

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.len }

// Bytes reports the total L3 bytes queued.
func (q *Queue) Bytes() int { return q.bytes }

// Empty reports whether the queue holds no packets.
func (q *Queue) Empty() bool { return q.len == 0 }

// Push appends p. The queue takes ownership: the packet is released by
// whoever pops or drains the queue.
//
//hj17:owns
func (q *Queue) Push(p *Packet) {
	if p.next != nil || q.tail == p {
		panic("pkt: packet already queued")
	}
	if p.pooled {
		panic("pkt: queueing a released packet")
	}
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.len++
	q.bytes += p.Size
}

// PushFront prepends p (used to return MPDUs to the head after a failed
// transmission). The queue takes ownership, as with Push.
//
//hj17:owns
func (q *Queue) PushFront(p *Packet) {
	if p.next != nil || q.tail == p {
		panic("pkt: packet already queued")
	}
	if p.pooled {
		panic("pkt: queueing a released packet")
	}
	p.next = q.head
	q.head = p
	if q.tail == nil {
		q.tail = p
	}
	q.len++
	q.bytes += p.Size
}

// Pop removes and returns the head, or nil when empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	q.len--
	q.bytes -= p.Size
	return p
}

// Peek returns the head without removing it.
func (q *Queue) Peek() *Packet { return q.head }
