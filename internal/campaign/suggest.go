package campaign

import (
	"sort"
	"strings"
)

// Suggest returns the candidates most plausibly meant by a mistyped
// name, for did-you-mean diagnostics: candidates within a small edit
// distance or sharing a prefix/substring relationship with the input,
// closest first (ties in candidate order). An empty result means
// nothing was close.
func Suggest(name string, candidates []string) []string {
	type scored struct {
		name string
		dist int
		pos  int
	}
	var close []scored
	for i, c := range candidates {
		d := editDistance(name, c)
		// Accept a distance up to half the typed name (at least 2), or
		// any containment either way — "fair" should suggest "fairness".
		// An empty name is contained in everything and suggests nothing.
		limit := len(name) / 2
		if limit < 2 {
			limit = 2
		}
		if d <= limit || name != "" && (strings.Contains(c, name) || strings.Contains(name, c)) {
			close = append(close, scored{c, d, i})
		}
	}
	sort.Slice(close, func(i, j int) bool {
		if close[i].dist != close[j].dist {
			return close[i].dist < close[j].dist
		}
		return close[i].pos < close[j].pos
	})
	out := make([]string, 0, len(close))
	for _, s := range close {
		out = append(out, s.name)
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
