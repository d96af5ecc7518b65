package mactid

import (
	"fmt"
	"testing"

	"repro/internal/codel"
	"repro/internal/sim"
)

// refLongestQueue is the original O(flows+overflow) reference: first
// strictly longest hash queue in index order, then the overflow queues
// of tids (every TID set up on fq, in InitTID order), a later queue
// winning only on strictly more bytes. It is nil while every queue is
// empty, including before the flow table exists.
func refLongestQueue(fq *Fq, tids []*TID) *queue {
	var longest *queue
	consider := func(q *queue) {
		if q.q.Bytes() > 0 && (longest == nil || q.q.Bytes() > longest.q.Bytes()) {
			longest = q
		}
	}
	for i := range fq.flows {
		consider(&fq.flows[i])
	}
	for _, t := range tids {
		consider(&t.overflowQ)
	}
	return longest
}

// describe names a queue pick for failure messages.
func describe(q *queue) string {
	if q == nil {
		return "none"
	}
	return fmt.Sprintf("idx %d (%d B)", q.idx, q.q.Bytes())
}

// checkHeap verifies the occupied heap against every queue whose byte
// count has settled, i.e. every queue but fq.pending: each heap edge is
// ordered by occAbove, each occPos names its own slot, and the heap
// holds exactly the queues with bytes. tids are every TID set up on fq.
func checkHeap(fq *Fq, tids []*TID) error {
	h := fq.occupied
	for i, q := range h {
		if q.occPos != i {
			return fmt.Errorf("queue %d sits at slot %d but records occPos %d", q.idx, i, q.occPos)
		}
		if i == 0 {
			continue
		}
		par := h[(i-1)/2]
		if q != fq.pending && par != fq.pending && occAbove(q, par) {
			return fmt.Errorf("heap edge out of order: child queue %d (%d B) above parent queue %d (%d B)",
				q.idx, q.q.Bytes(), par.idx, par.q.Bytes())
		}
	}
	check := func(q *queue) error {
		if q.occPos >= 0 && (q.occPos >= len(h) || h[q.occPos] != q) {
			return fmt.Errorf("queue %d records occPos %d but is not in that slot", q.idx, q.occPos)
		}
		if q != fq.pending && (q.q.Bytes() > 0) != (q.occPos >= 0) {
			return fmt.Errorf("queue %d: %d B but occPos %d", q.idx, q.q.Bytes(), q.occPos)
		}
		return nil
	}
	for i := range fq.flows {
		if err := check(&fq.flows[i]); err != nil {
			return err
		}
	}
	for _, t := range tids {
		if err := check(&t.overflowQ); err != nil {
			return err
		}
	}
	return nil
}

// peekLongestQueue returns longestQueue's pick, then restores the heap
// and the pending queue, so a check between ops leaves the next op the
// same deferred state it would have had unchecked.
func peekLongestQueue(fq *Fq) *queue {
	pending, heap := fq.pending, append([]*queue(nil), fq.occupied...)
	pendingPos := 0
	if pending != nil {
		pendingPos = pending.occPos
	}
	got := fq.longestQueue()
	fq.pending = pending
	fq.occupied = append(fq.occupied[:0], heap...)
	for i, q := range heap {
		q.occPos = i
	}
	if pending != nil {
		pending.occPos = pendingPos
	}
	return got
}

// TestLongestQueueMatchesReferenceScan drives randomized enqueues and
// dequeues and checks the occupied heap before the first op and after
// every op: its invariants hold on every settled queue, and the victim
// it yields equals the reference scan's, ties included. The first
// check runs before the flow table exists. The one-TID row runs with small
// limits and an advancing clock, so over-limit and CoDel drops both
// change byte counts while a different queue is pending; the two-TID
// row routes hash collisions through the overflow queues.
func TestLongestQueueMatchesReferenceScan(t *testing.T) {
	for _, tc := range []struct {
		name               string
		tids               int
		minLimit, maxLimit int
		tick               int // the clock advances Intn(tick) µs per op
		seeds              uint64
	}{
		{name: "one TID, drops", tids: 1, minLimit: 5, maxLimit: 64, tick: 3000, seeds: 100},
		{name: "two TIDs, no limit", tids: 2, minLimit: 1 << 30, maxLimit: 1 << 30, seeds: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= tc.seeds; seed++ {
				r := sim.NewRand(seed)
				fq := New(Config{Flows: 16, Limit: tc.minLimit + r.Intn(tc.maxLimit-tc.minLimit+1)})
				tids := make([]*TID, tc.tids)
				for i := range tids {
					tids[i] = newTID(fq)
				}
				now := sim.Time(0)
				for step := -1; step < 5000; step++ {
					if step >= 0 {
						tid := tids[r.Intn(len(tids))]
						if r.Intn(3) != 0 {
							// Few flows over few sizes: hash collisions
							// exercise the overflow queues, equal sizes
							// force ties.
							tid.Enqueue(mkp(uint64(r.Intn(12)), 100*(1+r.Intn(3))), now)
						} else {
							tid.Dequeue(now, codel.Default())
						}
						if tc.tick > 0 {
							now += sim.Time(r.Intn(tc.tick)) * sim.Microsecond
						}
					}
					if err := checkHeap(fq, tids); err != nil {
						t.Fatalf("seed %d limit %d step %d: %v", seed, fq.cfg.Limit, step, err)
					}
					got, want := peekLongestQueue(fq), refLongestQueue(fq, tids)
					if got != want {
						t.Fatalf("seed %d limit %d step %d: longestQueue picked %s, reference %s",
							seed, fq.cfg.Limit, step, describe(got), describe(want))
					}
				}
			}
		})
	}
}
