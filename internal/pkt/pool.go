package pkt

import (
	"sync"

	"repro/internal/sim"
)

// PoolStats are a pool's lifetime counters.
type PoolStats struct {
	Gets int64 // packets handed out
	Puts int64 // packets released
	// News counts Gets served by neither recycling nor Prewarm. A Get
	// that finds the free list empty threads one slab, and each of its
	// packets counts here on its first hand-out (a released pool counts
	// every packet it allocates).
	News      int64
	Headers   int64 // TCP headers heap-allocated
	Prewarmed int64 // packets threaded onto the free list by Prewarm
}

// Live reports packets currently held by the simulation (handed out and
// not yet released).
func (s PoolStats) Live() int64 { return s.Gets - s.Puts }

// Slab sizes for Gets that find the free list empty: the first miss
// threads minSlab packets and each later one doubles, up to maxSlab, so
// a world that never needs many packets allocates few.
const (
	minSlab = 16
	maxSlab = 256
)

// reservoir passes packet slabs (*[]Packet) from released pools to new
// ones, so a campaign worker's next world reuses the memory of its last.
// Like any sync.Pool it empties itself across idle GC cycles.
var reservoir sync.Pool

// emptySlab is the sentinel Release puts first (see there); takeSlab
// skips it.
var emptySlab = new([]Packet)

// Pool is a per-world packet free list. Every layer of one simulation
// shares a single Pool (see PoolOf), so a packet released at any sink —
// final delivery, a queue drop, a retry-limit drop — is recycled by the
// next traffic source that needs one. Pools are intentionally not
// goroutine-safe: a simulation world is single-threaded, and parallel
// campaign runs each own a world and therefore a pool.
//
// The pool owns its packet memory as slabs, which Release hands to the
// next world's pool once this world is discarded.
type Pool struct {
	free     *Packet     // intrusive free list through Packet.next
	hfree    *TCPHeader  // recycled TCP headers, linked through sackNext
	slabs    []*[]Packet // the packet memory this pool threaded
	missSlab int         // size of the last slab a miss asked for
	stats    PoolStats
	enabled  bool // cleared by Release
}

// NewPool creates an empty recycling pool.
func NewPool() *Pool { return &Pool{enabled: true} }

// PoolOf returns the world's packet pool, creating and attaching it on
// first use. The pool rides on the Sim's allocator slot so that traffic
// sources, the TCP stack and the MAC all resolve the same instance.
func PoolOf(s *sim.Sim) *Pool {
	if p, ok := s.Allocator().(*Pool); ok {
		return p
	}
	p := NewPool()
	s.SetAllocator(p)
	return p
}

// Stats returns the pool's counters.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// Get returns a zero-valued packet, recycled when one is free. The
// caller owns it until it hands it to another layer or releases it with
// Put.
func (pl *Pool) Get() *Packet {
	pl.stats.Gets++
	p := pl.free
	if p == nil {
		if !pl.enabled {
			pl.stats.News++
			return &Packet{}
		}
		pl.missSlab = min(max(2*pl.missSlab, minSlab), maxSlab)
		pl.thread(takeSlab(pl.missSlab), true)
		p = pl.free
	}
	if p.fresh {
		pl.stats.News++
	}
	pl.free = p.next
	hdr := p.TCP
	*p = Packet{}
	if hdr != nil {
		pl.putHeader(hdr)
	}
	return p
}

// Put releases p back to the pool. p must not be queued or referenced by
// any other layer; releasing the same packet twice panics, as it always
// indicates an ownership bug. A packet that was never obtained from the
// pool may be released into it.
func (pl *Pool) Put(p *Packet) {
	if p.pooled {
		panic("pkt: packet released twice")
	}
	if p.next != nil {
		panic("pkt: releasing a queued packet")
	}
	pl.stats.Puts++
	if !pl.enabled {
		return
	}
	p.pooled = true
	p.next = pl.free
	pl.free = p
}

// Prewarm grows the free list by at least n packets, so a world that can
// estimate its standing-queue depth up front pays one allocation instead
// of n during queue build-up. It threads released slabs first and
// allocates the remainder as one slab. A no-op on a released pool.
func (pl *Pool) Prewarm(n int) {
	if !pl.enabled {
		return
	}
	for n > 0 {
		s := takeSlab(n)
		pl.thread(s, false)
		pl.stats.Prewarmed += int64(len(*s))
		n -= len(*s)
	}
}

// takeSlab returns a released slab from the reservoir, or a fresh one of
// n packets when the reservoir holds none.
func takeSlab(n int) *[]Packet {
	for {
		s, ok := reservoir.Get().(*[]Packet)
		if !ok {
			break
		}
		if len(*s) > 0 {
			return s
		}
	}
	s := make([]Packet, n)
	return &s
}

// thread takes ownership of slab s and pushes its packets onto the free
// list, marking them fresh when a Get miss threads them. A released
// slab's packets still hold whatever their last world left in them
// (queue links, TCP headers); Get zeroes each on hand-out and recycles
// its header.
func (pl *Pool) thread(s *[]Packet, fresh bool) {
	pl.slabs = append(pl.slabs, s)
	for i := range *s {
		p := &(*s)[i]
		p.pooled, p.fresh = true, fresh
		p.next = pl.free
		pl.free = p
	}
}

// Release hands the pool's slabs to the reservoir for the next world's
// pool and disables this pool: Put stops recycling and Get returns fresh
// packets, so nothing this pool does afterwards can reach released
// memory. Call it only when the world is discarded: the packets it still
// holds live in those slabs, and the next pool hands them out again.
//
// A pool released before its world runs therefore never recycles: every
// Get allocates and counts in News, Prewarm threads nothing, and no
// packet or TCP header is handed out twice. The pooling identity tests
// rely on this: they run such a world as the reference that recycling
// must not change.
func (pl *Pool) Release() {
	// A sync.Pool keeps a Put in the calling P's private slot when that
	// is free, and a Get running on another P cannot take it from there.
	// The empty sentinel fills the slot, so the slabs land where the next
	// world's pool finds them whichever P it runs on.
	reservoir.Put(emptySlab)
	for _, s := range pl.slabs {
		reservoir.Put(s)
	}
	pl.slabs = nil
	pl.free, pl.hfree = nil, nil
	pl.enabled = false
}

// GetHeader returns a zero-valued TCP header with any recycled Sack
// capacity retained, so steady-state ACK construction allocates nothing.
func (pl *Pool) GetHeader() *TCPHeader {
	h := pl.hfree
	if h == nil {
		pl.stats.Headers++
		return &TCPHeader{}
	}
	pl.hfree = h.sackNext
	sack := h.Sack[:0]
	*h = TCPHeader{}
	h.Sack = sack
	return h
}

func (pl *Pool) putHeader(h *TCPHeader) {
	if !pl.enabled {
		return
	}
	h.sackNext = pl.hfree
	pl.hfree = h
}
