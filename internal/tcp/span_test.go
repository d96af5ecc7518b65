package tcp

import (
	"slices"
	"testing"
	"testing/quick"
)

// contains reports whether [seq, seq+n) is fully covered.
func (ss *spanSet) contains(seq, n int64) bool {
	for _, sp := range ss.s {
		if seq >= sp.start && seq+n <= sp.end {
			return true
		}
	}
	return false
}

// refInsert is the reference insert: it builds a fresh slice on every
// call, which makes it obviously correct and the oracle the in-place
// spanSet.insert is checked against.
func refInsert(s []span, start, end int64) []span {
	if start >= end {
		return s
	}
	out := make([]span, 0, len(s)+1)
	placed := false
	for _, sp := range s {
		switch {
		case sp.end < start:
			out = append(out, sp)
		case end < sp.start:
			if !placed {
				out = append(out, span{start, end})
				placed = true
			}
			out = append(out, sp)
		default:
			// Overlapping or adjacent: absorb into the candidate.
			if sp.start < start {
				start = sp.start
			}
			if sp.end > end {
				end = sp.end
			}
		}
	}
	if !placed {
		out = append(out, span{start, end})
	}
	return out
}

// refPruneBelow is pruneBelow on a fresh slice.
func refPruneBelow(s []span, seq int64) []span {
	var out []span
	for _, sp := range s {
		if sp.end > seq {
			out = append(out, span{max(sp.start, seq), sp.end})
		}
	}
	return out
}

func TestSpanInsertMerge(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	if len(ss.s) != 2 || ss.bytes() != 20 {
		t.Fatalf("disjoint insert broken: %+v", ss.s)
	}
	// Adjacent merges.
	ss.insert(20, 30)
	if len(ss.s) != 1 || ss.s[0] != (span{10, 40}) {
		t.Fatalf("adjacency merge broken: %+v", ss.s)
	}
	// Overlapping extends.
	ss.insert(5, 15)
	if ss.s[0] != (span{5, 40}) {
		t.Fatalf("overlap merge broken: %+v", ss.s)
	}
	// Empty span ignored.
	ss.insert(50, 50)
	if len(ss.s) != 1 {
		t.Fatal("empty span inserted")
	}
}

// TestSpanInsertBeforeExisting is a regression test for the aliasing bug
// where inserting a span ahead of existing spans corrupted the set (the
// two-append path overwrote unread elements).
func TestSpanInsertBeforeExisting(t *testing.T) {
	var ss spanSet
	ss.insert(100, 110)
	ss.insert(120, 130)
	ss.insert(140, 150)
	ss.insert(10, 20) // goes in front; must not clobber the rest
	want := []span{{10, 20}, {100, 110}, {120, 130}, {140, 150}}
	if len(ss.s) != len(want) {
		t.Fatalf("got %+v", ss.s)
	}
	for i, sp := range want {
		if ss.s[i] != sp {
			t.Fatalf("span %d = %+v, want %+v (set %+v)", i, ss.s[i], sp, ss.s)
		}
	}
}

func TestSpanPruneBelow(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	ss.pruneBelow(15)
	if ss.s[0] != (span{15, 20}) || ss.bytes() != 15 {
		t.Fatalf("prune broken: %+v", ss.s)
	}
	ss.pruneBelow(100)
	if !ss.empty() {
		t.Fatal("prune all failed")
	}
}

func TestSpanContains(t *testing.T) {
	var ss spanSet
	ss.insert(10, 30)
	if !ss.contains(10, 20) || !ss.contains(15, 5) {
		t.Fatal("contains false negative")
	}
	if ss.contains(25, 10) || ss.contains(5, 5) {
		t.Fatal("contains false positive")
	}
}

func TestSpanNextGap(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	// Gap before first span.
	if s, n := ss.nextGap(0, 40, 100); s != 0 || n != 10 {
		t.Fatalf("gap = (%d,%d), want (0,10)", s, n)
	}
	// Starting inside a span jumps past it.
	if s, n := ss.nextGap(12, 40, 100); s != 20 || n != 10 {
		t.Fatalf("gap = (%d,%d), want (20,10)", s, n)
	}
	// Chunk limit applies.
	if s, n := ss.nextGap(20, 40, 4); s != 20 || n != 4 {
		t.Fatalf("gap = (%d,%d), want (20,4)", s, n)
	}
	// No gap past the limit.
	if _, n := ss.nextGap(30, 40, 100); n != 0 {
		t.Fatalf("gap beyond limit: n=%d", n)
	}
}

// TestSpanSetModel compares the spanSet against a boolean-array model
// and, span for span, against the reference insert/prune under random
// operation sequences.
func TestSpanSetModel(t *testing.T) {
	const world = 256
	type op struct {
		Insert   bool
		A, B, At uint8
	}
	check := func(ops []op) bool {
		var ss spanSet
		var ref []span
		var m [world]bool
		for _, o := range ops {
			if o.Insert {
				lo, hi := int64(o.A), int64(o.B)
				if lo > hi {
					lo, hi = hi, lo
				}
				ss.insert(lo, hi)
				ref = refInsert(ref, lo, hi)
				for i := lo; i < hi; i++ {
					m[i] = true
				}
			} else {
				ss.pruneBelow(int64(o.At))
				ref = refPruneBelow(ref, int64(o.At))
				for i := 0; i < int(o.At); i++ {
					m[i] = false
				}
			}
			if !slices.Equal(ss.s, ref) {
				return false
			}
			// Compare coverage, invariants.
			var bytes int64
			prevEnd := int64(-1)
			for _, sp := range ss.s {
				if sp.start >= sp.end || sp.start <= prevEnd {
					return false // unsorted, empty, or overlapping/adjacent-unmerged
				}
				prevEnd = sp.end
				bytes += sp.end - sp.start
			}
			var want int64
			for i := 0; i < world; i++ {
				if m[i] {
					want++
				}
				covered := ss.contains(int64(i), 1)
				if covered != m[i] {
					return false
				}
			}
			if bytes != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSpanSetNoAllocs: once the backing array has grown to the set's
// peak size, insert (in order, out of order, merging) and pruneBelow
// reuse it.
func TestSpanSetNoAllocs(t *testing.T) {
	var ss spanSet
	ss.s = make([]span, 0, 64)
	round := func() {
		for i := int64(0); i < 16; i++ {
			ss.insert(100+20*i, 110+20*i) // disjoint holes, appended
		}
		ss.insert(0, 10)    // ahead of everything: shifts the set
		ss.insert(105, 125) // bridges two spans
		ss.insert(10, 100)  // merges the head
		ss.pruneBelow(200)
		ss.pruneBelow(1 << 20)
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("insert/pruneBelow allocate %.1f times per round with warm capacity", n)
	}
}

// BenchmarkSpanSetInsert measures the receiver's per-segment span work:
// an in-order insert absorbed by pruneBelow, plus an out-of-order insert
// into a set holding a few holes.
func BenchmarkSpanSetInsert(b *testing.B) {
	var ss spanSet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := int64(i%1024) * 16 * MSS
		ss.insert(base, base+MSS)
		ss.insert(base+4*MSS, base+5*MSS)
		ss.insert(base+8*MSS, base+9*MSS)
		ss.insert(base+MSS, base+4*MSS)
		ss.pruneBelow(base + 9*MSS)
	}
}
