package pkt

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestDupSackNoAliasing is the regression test for the Dup aliasing bug:
// the duplicated header must not share the SACK backing array with the
// original, or edits to one connection's SACK list corrupt the clone's.
func TestDupSackNoAliasing(t *testing.T) {
	p := &Packet{
		Proto: ProtoTCP,
		TCP: &TCPHeader{
			Sack: []SackBlock{{Start: 10, End: 20}, {Start: 40, End: 50}},
		},
	}
	// Leave spare capacity so an append to the original would write into
	// a shared backing array if Dup aliased it.
	p.TCP.Sack = append(make([]SackBlock, 0, 8), p.TCP.Sack...)
	d := p.Dup()

	p.TCP.Sack[0] = SackBlock{Start: 1, End: 2}
	p.TCP.Sack = append(p.TCP.Sack, SackBlock{Start: 90, End: 99})
	if d.TCP.Sack[0] != (SackBlock{Start: 10, End: 20}) {
		t.Fatalf("dup SACK mutated through the original: %+v", d.TCP.Sack[0])
	}
	if len(d.TCP.Sack) != 2 {
		t.Fatalf("dup SACK length changed: %d", len(d.TCP.Sack))
	}
	d.TCP.Sack[1] = SackBlock{Start: 7, End: 8}
	if p.TCP.Sack[1] == (SackBlock{Start: 7, End: 8}) {
		t.Fatal("original SACK mutated through the dup")
	}
}

func TestPoolRecyclesPackets(t *testing.T) {
	pl := &Pool{enabled: true}
	a := pl.Get()
	a.Size = 100
	a.Proto = ProtoTCP
	a.Retries = 3
	pl.Put(a)
	b := pl.Get()
	if b != a {
		t.Fatal("pool did not recycle the released packet")
	}
	if *b != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *b)
	}
	st := pl.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 || st.Live() != 1 {
		t.Fatalf("stats wrong: %+v live=%d", st, st.Live())
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	pl.Put(p)
}

func TestPoolReleasedPacketUnqueueable(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	pl.Put(p)
	// Pool's free list uses p.next, so Queue.Push already panics on the
	// link; a released packet at the free-list head has next == nil, so
	// the pooled flag is what catches it.
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic queueing a released packet")
		}
	}()
	q.Push(p)
}

func TestPoolRecyclesHeaders(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	h := pl.GetHeader()
	h.Sack = append(h.Sack, SackBlock{1, 2}, SackBlock{3, 4})
	p.TCP = h
	pl.Put(p)
	if q := pl.Get(); q != p {
		t.Fatal("packet not recycled")
	}
	h2 := pl.GetHeader()
	if h2 != h {
		t.Fatal("header not recycled with its packet")
	}
	if len(h2.Sack) != 0 || cap(h2.Sack) < 2 {
		t.Fatalf("recycled header Sack not reset with capacity: len=%d cap=%d",
			len(h2.Sack), cap(h2.Sack))
	}
	if pl.Stats().Headers != 1 {
		t.Fatalf("allocated %d headers, want 1", pl.Stats().Headers)
	}
}

// TestPoolDisabledStillCounts: a pool released before use is the
// reference the pooling identity tests run worlds on. Prewarm threads
// nothing, no packet or TCP header that comes back with Put is handed
// out again, and the pool still counts every Get in News.
func TestPoolDisabledStillCounts(t *testing.T) {
	pl := NewPool()
	pl.Release()
	pl.Prewarm(1000)
	if st := pl.Stats(); len(pl.slabs) != 0 || st.Prewarmed != 0 {
		t.Fatalf("released pool threaded %d slabs, Prewarmed = %d", len(pl.slabs), st.Prewarmed)
	}
	a := pl.Get()
	h := pl.GetHeader()
	a.Proto, a.TCP = ProtoTCP, h
	pl.Put(a)
	if b := pl.Get(); b == a {
		t.Fatal("released pool recycled a packet")
	}
	if pl.GetHeader() == h {
		t.Fatal("released pool recycled a TCP header")
	}
	st := pl.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 2 || st.Headers != 2 || st.Live() != 1 {
		t.Fatalf("released pool stats wrong: %+v", st)
	}
}

func TestPoolOfAttachesOnce(t *testing.T) {
	s := sim.New(1)
	a := PoolOf(s)
	b := PoolOf(s)
	if a == nil || a != b {
		t.Fatal("PoolOf did not return one pool per world")
	}
	if PoolOf(sim.New(2)) == a {
		t.Fatal("distinct worlds share a pool")
	}
}

// drainReservoir empties the process-wide slab reservoir, so a test
// decides which released slabs a new pool can draw.
func drainReservoir() {
	for reservoir.Get() != nil {
	}
}

// keepReservoir stops the collector for the test, since a GC cycle may
// empty the reservoir. It skips under -race, where sync.Pool drops a
// quarter of Puts on purpose.
func keepReservoir(t *testing.T) {
	t.Helper()
	if raceOn {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestReleasedSlabServesNextPool: a pool built after another pool's
// Release serves its Gets from the released slab, zeroed, whatever the
// released world left in the packets: queue links, TCP headers with
// SACK blocks, free-list membership. The headers recycle with only
// their Sack capacity.
func TestReleasedSlabServesNextPool(t *testing.T) {
	keepReservoir(t)
	drainReservoir()
	a := &Pool{enabled: true}
	held := make([]*Packet, minSlab) // exactly one miss slab
	for i := range held {
		p := a.Get()
		p.SeqNo, p.Size, p.Flow, p.Retries = int64(i+1), 1500, uint64(i), 2
		held[i] = p
	}
	var headers []*TCPHeader
	for i, p := range held[:8] {
		h := a.GetHeader()
		h.Seq = int64(i)
		h.Sack = append(h.Sack, SackBlock{Start: 1, End: 2}, SackBlock{Start: 3, End: 4})
		p.Proto, p.TCP = ProtoTCP, h
		headers = append(headers, h)
	}
	var q Queue
	for _, p := range held[4:12] { // queued, half of them with headers
		q.Push(p)
	}
	for _, p := range held[12:] { // back on a's free list
		a.Put(p)
	}
	a.Release()

	b := &Pool{enabled: true}
	for range held {
		p := b.Get()
		if !slices.Contains(held, p) {
			t.Fatal("Get served a packet outside the released slab")
		}
		if *p != (Packet{}) {
			t.Fatalf("packet from a released slab not zeroed: %+v", *p)
		}
	}
	for range headers {
		h := b.GetHeader()
		if !slices.Contains(headers, h) {
			t.Fatal("GetHeader allocated instead of recycling a released world's header")
		}
		if len(h.Sack) != 0 || cap(h.Sack) < 2 || h.Seq != 0 {
			t.Fatalf("recycled header not reset: %+v (cap %d)", *h, cap(h.Sack))
		}
	}
	if st := b.Stats(); st.News != int64(len(held)) || st.Headers != 0 {
		t.Fatalf("stats %+v, want %d Gets served by a miss and no header allocated", st, len(held))
	}
}

// TestReleasedPoolRecyclesNothing: after Release a Put packet is never
// handed out again, and the pool owns no slab.
func TestReleasedPoolRecyclesNothing(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	pl.Release()
	pl.Put(p)
	for i := 0; i < 2*maxSlab; i++ {
		if pl.Get() == p {
			t.Fatalf("Get %d handed out a packet Put after Release", i)
		}
	}
	if len(pl.slabs) != 0 {
		t.Fatalf("released pool threaded %d slabs", len(pl.slabs))
	}
	if st := pl.Stats(); st.Puts != 1 || st.Gets != 1+2*maxSlab {
		t.Fatalf("released pool stats wrong: %+v", st)
	}
}

// TestPrewarmOneSlab: on an empty reservoir Prewarm(n) makes one slab
// of n packets, which then serves n Gets without a miss.
func TestPrewarmOneSlab(t *testing.T) {
	drainReservoir()
	pl := &Pool{enabled: true}
	pl.Prewarm(1000)
	if len(pl.slabs) != 1 || len(*pl.slabs[0]) != 1000 {
		t.Fatalf("Prewarm(1000) threaded %d slabs", len(pl.slabs))
	}
	for i := 0; i < 1000; i++ {
		pl.Get()
	}
	if st := pl.Stats(); st.News != 0 || st.Prewarmed != 1000 {
		t.Fatalf("stats %+v, want 1000 prewarmed and no miss", st)
	}
}

// TestMissSlabsDouble: on an empty reservoir each Get that finds the
// free list empty threads a slab twice the last, from 16 up to 256.
func TestMissSlabsDouble(t *testing.T) {
	drainReservoir()
	want := []int{16, 32, 64, 128, 256, 256}
	pl := &Pool{enabled: true}
	for _, n := range want {
		for i := 0; i < n; i++ {
			pl.Get()
		}
	}
	var got []int
	for _, s := range pl.slabs {
		got = append(got, len(*s))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("miss slabs %v, want %v", got, want)
	}
	if st := pl.Stats(); st.News != st.Gets {
		t.Fatalf("News = %d, want every one of the %d Gets", st.News, st.Gets)
	}
}

// TestNewsCountsFirstHandOuts: News counts a miss slab's packets as
// Gets hand them out, not the slab's unused tail, and not a released
// miss slab's leftovers that Prewarm draws; so Gets-News stays the Gets
// served by recycling or Prewarm.
func TestNewsCountsFirstHandOuts(t *testing.T) {
	keepReservoir(t)
	drainReservoir()
	a := &Pool{enabled: true}
	a.Get() // threads a fresh slab and leaves minSlab-1 packets unused
	a.Release()

	b := &Pool{enabled: true}
	b.Prewarm(minSlab) // draws a's slab
	for i := 0; i < minSlab; i++ {
		b.Get()
	}
	if st := b.Stats(); st.News != 0 || st.Prewarmed != minSlab {
		t.Fatalf("stats %+v, want %d prewarmed Gets and no miss", st, minSlab)
	}
	p := b.Get() // a miss: threads a new slab
	b.Put(p)
	b.Get()
	if st := b.Stats(); st.News != 1 || st.Gets-st.News != minSlab+1 {
		t.Fatalf("stats %+v, want one Get served by the miss", st)
	}
}
