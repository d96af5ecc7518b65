package tcp

// span is a half-open byte range [start, end).
type span struct{ start, end int64 }

// spanSet is a sorted list of disjoint, non-adjacent spans. Every
// operation works in place in s, so once its capacity has grown to the
// connection's peak hole count the set never allocates again.
type spanSet struct {
	s []span
}

// insert adds [start, end), merging with overlapping or adjacent
// neighbours.
//
//hj17:hotpath
func (ss *spanSet) insert(start, end int64) {
	if start >= end {
		return
	}
	s := ss.s
	// s[i:j] are the spans that touch [start, end): the first whose end
	// reaches start, up to the first that begins beyond end.
	i := 0
	for i < len(s) && s[i].end < start {
		i++
	}
	j := i
	for j < len(s) && s[j].start <= end {
		j++
	}
	if i == j {
		// Touches nothing: open a slot at i.
		s = append(s, span{})
		copy(s[i+1:], s[i:])
		s[i] = span{start, end}
		ss.s = s
		return
	}
	if s[i].start < start {
		start = s[i].start
	}
	if s[j-1].end > end {
		end = s[j-1].end
	}
	s[i] = span{start, end}
	ss.s = append(s[:i+1], s[j:]...)
}

// pruneBelow removes coverage below seq.
//
//hj17:hotpath
func (ss *spanSet) pruneBelow(seq int64) {
	out := ss.s[:0]
	for _, sp := range ss.s {
		if sp.end <= seq {
			continue
		}
		if sp.start < seq {
			sp.start = seq
		}
		out = append(out, sp)
	}
	ss.s = out
}

// bytes reports total covered bytes.
func (ss *spanSet) bytes() int64 {
	var n int64
	for _, sp := range ss.s {
		n += sp.end - sp.start
	}
	return n
}

// max reports the highest covered byte (0 when empty).
func (ss *spanSet) max() int64 {
	if len(ss.s) == 0 {
		return 0
	}
	return ss.s[len(ss.s)-1].end
}

// empty reports whether the set covers nothing.
func (ss *spanSet) empty() bool { return len(ss.s) == 0 }

// nextGap finds the first uncovered range at or after seq and below limit,
// clamped to at most n bytes. It returns (start, length); length 0 means
// no gap.
//
//hj17:hotpath
func (ss *spanSet) nextGap(seq, limit, n int64) (int64, int64) {
	for _, sp := range ss.s {
		if sp.end <= seq {
			continue
		}
		if seq < sp.start {
			break
		}
		// seq is inside sp; jump past it.
		seq = sp.end
	}
	if seq >= limit {
		return 0, 0
	}
	length := n
	// Trim at the next covered span.
	for _, sp := range ss.s {
		if sp.start > seq {
			if seq+length > sp.start {
				length = sp.start - seq
			}
			break
		}
	}
	if seq+length > limit {
		length = limit - seq
	}
	return seq, length
}
