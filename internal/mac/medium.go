package mac

import (
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// txq is the per-(node, access category) transmit state: the EDCA
// contention machine plus the hardware queue of built aggregates.
type txq struct {
	node *Node
	ac   pkt.AC
	par  EDCAParams
	bss  int // owning node's BSS identity, for per-BSS medium accounting

	hwq []*Aggregate // built aggregates awaiting air, depth-limited

	cw         int    // current contention window
	slots      int    // remaining backoff slots
	contending bool   // registered with the medium
	ci         int    // index in Medium.contenders while contending
	seq        uint64 // enlistment order, restored by grant's winner sort
}

// popHW removes the head aggregate, shifting in place so the short
// backing array is reused forever.
func (t *txq) popHW() {
	n := len(t.hwq)
	copy(t.hwq, t.hwq[1:])
	t.hwq[n-1] = nil
	t.hwq = t.hwq[:n-1]
}

func (t *txq) aifs() sim.Time { return t.par.AIFS() }

// drawBackoff picks a fresh uniform backoff in [0, cw].
func (t *txq) drawBackoff(r *sim.Rand) {
	t.slots = r.Intn(t.cw + 1)
}

// bumpCW doubles the contention window after a failed transmission.
func (t *txq) bumpCW() {
	t.cw = min(2*t.cw+1, t.par.CWMax)
}

func (t *txq) resetCW() { t.cw = t.par.CWMin }

// Medium is the shared radio channel. It arbitrates access between the
// backlogged transmit queues of every node using a slotted DCF/EDCA model:
// each contender counts down a backoff in 9 µs slots after its AIFS;
// the earliest contender wins; ties between different nodes collide, ties
// between access categories of one node resolve to the higher category
// (virtual collision).
type Medium struct {
	sim *sim.Sim

	// contenders is the set of actively-contending txqs, maintained
	// incrementally: request appends, unlist swap-removes in O(1). Only
	// backlogged transmitters ever appear here, so every scan below is
	// O(active contenders) — independent of the world's total station
	// count. Swap-removal perturbs slice order; grant() restores the
	// historical insertion order by sorting winners on their enlistment
	// sequence, so behaviour is identical to an ordered full scan.
	contenders []*txq
	// waits[i] caches contenders[i]'s AIFS + remaining backoff, the
	// quantity every reschedule and winner-collection scan needs: the
	// scans walk this flat array instead of dereferencing each txq.
	// Updated wherever a contender's slot count changes.
	waits     []sim.Time
	enlistCtr uint64
	accessEv  sim.EventRef
	idleStart sim.Time
	txActive  bool
	busyUntil sim.Time

	// inFlight holds the current transmission's entries; only one
	// transmission is on the air at a time, so the completion event reads
	// it in place — no per-grant copy. The remaining slices are grant()
	// scratch, reused across grants.
	inFlight     []grantEntry
	completeCall func(any)
	grantCall    func() // shared trampoline: At(…, m.grant) would allocate per call
	winners      []*txq
	virtLosers   []*txq
	real         []*txq

	// Stats.
	BusyTime   sim.Time // total time the channel carried transmissions
	Collisions int      // collision events (two or more nodes)
	Grants     int      // successful single-winner grants

	// bssBusy accounts channel time per BSS (indexed by the transmitter
	// txq's BSS identity), grown on demand. In a multi-BSS world this is
	// the OBSS occupancy split; single-AP worlds only ever touch entry 0.
	bssBusy []sim.Time
}

type grantEntry struct {
	q        *txq
	agg      *Aggregate
	collided bool
	occupied sim.Time // channel time this attempt consumed
}

// NewMedium creates the channel for one simulation.
func NewMedium(s *sim.Sim) *Medium {
	m := &Medium{sim: s}
	m.completeCall = func(any) { m.complete() }
	m.grantCall = func() { m.grant() }
	return m
}

// request registers q for channel access. Idempotent while contending.
//
//hj17:hotpath
func (m *Medium) request(q *txq) {
	if q.contending {
		return
	}
	q.contending = true
	q.seq = m.enlistCtr
	m.enlistCtr++
	q.drawBackoff(m.sim.Rand())
	m.creditSlots()
	q.ci = len(m.contenders)
	m.contenders = append(m.contenders, q)
	m.waits = append(m.waits, q.aifs()+sim.Time(q.slots)*phy.TSlot)
	m.reschedule()
}

// unlist removes q from the contender set in O(1) by swapping the last
// entry into its slot. The caller must hold q.contending == true.
//
//hj17:hotpath
func (m *Medium) unlist(q *txq) {
	last := len(m.contenders) - 1
	if i := q.ci; i != last {
		m.contenders[i] = m.contenders[last]
		m.contenders[i].ci = i
		m.waits[i] = m.waits[last]
	}
	m.contenders[last] = nil
	m.contenders = m.contenders[:last]
	m.waits = m.waits[:last]
	q.contending = false
}

// withdraw removes q from contention (its hardware queue emptied).
//
//hj17:hotpath
func (m *Medium) withdraw(q *txq) {
	if !q.contending {
		return
	}
	m.unlist(q)
	m.reschedule()
}

// creditSlots accounts backoff slots counted down since the idle period
// began, so that a reschedule does not reset anyone's progress.
//
//hj17:hotpath
func (m *Medium) creditSlots() {
	if m.txActive {
		return
	}
	now := m.sim.Now()
	for i, c := range m.contenders {
		elapsed := now - m.idleStart - c.aifs()
		if elapsed <= 0 {
			continue
		}
		n := int(elapsed / phy.TSlot)
		if n > c.slots {
			n = c.slots
		}
		c.slots -= n
		m.waits[i] -= sim.Time(n) * phy.TSlot
	}
	m.idleStart = now
}

// refreshWait re-derives a contender's cached wait after its slot count
// changed outside creditSlots.
//
//hj17:hotpath
func (m *Medium) refreshWait(c *txq) {
	if c.contending {
		m.waits[c.ci] = c.aifs() + sim.Time(c.slots)*phy.TSlot
	}
}

// readyAt returns when contender c could seize the channel, measured from
// the current idle start.
//
//hj17:hotpath
func (m *Medium) readyAt(c *txq) sim.Time {
	return m.idleStart + m.waits[c.ci]
}

// reschedule recomputes the next channel-access event.
//
//hj17:hotpath
func (m *Medium) reschedule() {
	if m.accessEv.Valid() {
		m.sim.Cancel(m.accessEv)
		m.accessEv = sim.EventRef{}
	}
	if m.txActive || len(m.contenders) == 0 {
		return
	}
	if m.idleStart < m.busyUntil {
		m.idleStart = m.busyUntil
	}
	if m.idleStart < m.sim.Now() {
		m.idleStart = m.sim.Now()
	}
	minWait := m.waits[0]
	for _, w := range m.waits[1:] {
		if w < minWait {
			minWait = w
		}
	}
	m.accessEv = m.sim.At(m.idleStart+minWait, m.grantCall)
}

// collectWinners gathers the contenders whose backoff has expired by
// now, in enlistment order. The contender slice itself is scan-order-free
// (swap-removal), so the winners are sorted on their enlistment sequence
// — reproducing exactly the order a full scan of the historical
// insertion-ordered contender list would have produced, which the
// virtual-collision resolution and loser backoff redraws below consume.
//
//hj17:hotpath
func (m *Medium) collectWinners(now sim.Time) []*txq {
	winners := m.winners[:0]
	cut := now - m.idleStart
	for i, w := range m.waits {
		if w <= cut {
			winners = append(winners, m.contenders[i])
		}
	}
	for i := 1; i < len(winners); i++ {
		for j := i; j > 0 && winners[j].seq < winners[j-1].seq; j-- {
			winners[j], winners[j-1] = winners[j-1], winners[j]
		}
	}
	m.winners = winners
	return winners
}

// grant fires when the earliest contender's backoff expires: it resolves
// winners, starts their transmissions and schedules completion.
//
//hj17:hotpath
func (m *Medium) grant() {
	m.accessEv = sim.EventRef{}
	now := m.sim.Now()

	winners := m.collectWinners(now)
	if len(winners) == 0 {
		m.reschedule()
		return
	}

	// Credit countdown progress to everyone else before the channel goes
	// busy. Non-winners keep at least one slot.
	for _, c := range m.contenders {
		isWinner := false
		for _, w := range winners {
			if w == c {
				isWinner = true
				break
			}
		}
		if isWinner {
			continue
		}
		rem := m.readyAt(c) - now
		n := int((rem + phy.TSlot - 1) / phy.TSlot)
		if n < 1 {
			n = 1
		}
		c.slots = n
		m.refreshWait(c)
	}

	// Virtual (intra-node) collisions: the highest AC of a node transmits,
	// lower ones behave as if they collided. real keeps one winner per
	// node in first-seen order.
	real := m.real[:0]
	virtLosers := m.virtLosers[:0]
	for _, w := range winners {
		idx := -1
		for i, r := range real {
			if r.node == w.node {
				idx = i
				break
			}
		}
		if idx < 0 {
			real = append(real, w)
			continue
		}
		if w.ac > real[idx].ac {
			virtLosers = append(virtLosers, real[idx])
			real[idx] = w
		} else {
			virtLosers = append(virtLosers, w)
		}
	}
	m.virtLosers = virtLosers
	for _, l := range virtLosers {
		l.bumpCW()
		l.drawBackoff(m.sim.Rand())
		m.refreshWait(l)
	}

	// Deterministic order: sort by node id, AC.
	for i := 1; i < len(real); i++ {
		for j := i; j > 0 && less(real[j], real[j-1]); j-- {
			real[j], real[j-1] = real[j-1], real[j]
		}
	}
	m.real = real

	collided := len(real) > 1
	if collided {
		m.Collisions++
	} else {
		m.Grants++
	}

	end := now
	m.inFlight = m.inFlight[:0]
	for _, w := range real {
		if len(w.hwq) == 0 {
			// Stale contender; drop it from contention.
			m.unlist(w)
			continue
		}
		agg := w.hwq[0]
		occupied := agg.TotalDur
		if collided {
			// RTS-protected frames abort after the failed handshake.
			occupied = agg.CollisionCost()
		}
		if e := now + occupied; e > end {
			end = e
		}
		m.inFlight = append(m.inFlight, grantEntry{
			q: w, agg: agg, collided: collided, occupied: occupied,
		})
	}
	// Remove actual transmitters from the contender list for the duration.
	for gi := range m.inFlight {
		m.unlist(m.inFlight[gi].q)
	}
	if len(m.inFlight) == 0 {
		m.reschedule()
		return
	}

	m.txActive = true
	m.busyUntil = end
	m.BusyTime += end - now
	for gi := range m.inFlight {
		g := &m.inFlight[gi]
		m.chargeBSS(g.q.bss, g.occupied)
	}
	// Only one transmission occupies the air at a time, so complete()
	// reads m.inFlight directly — the next grant cannot fire before the
	// completion event has run.
	m.sim.AtCall(end, m.completeCall, nil)
}

// chargeBSS accounts channel time consumed by a transmitter of the given
// BSS. A collision charges every colliding BSS its own occupancy.
//
//hj17:hotpath
func (m *Medium) chargeBSS(bss int, d sim.Time) {
	for len(m.bssBusy) <= bss {
		m.bssBusy = append(m.bssBusy, 0)
	}
	m.bssBusy[bss] += d
}

// BSSBusyTime reports the channel time transmitters of the given BSS have
// consumed so far (including collision losses) — the medium's per-BSS
// occupancy split in a multi-BSS world.
func (m *Medium) BSSBusyTime(bss int) sim.Time {
	if bss < 0 || bss >= len(m.bssBusy) {
		return 0
	}
	return m.bssBusy[bss]
}

func less(a, b *txq) bool {
	if a.node.ID != b.node.ID {
		return a.node.ID < b.node.ID
	}
	return a.ac < b.ac
}

// complete finishes the in-flight transmissions, delivers their packets
// and restarts contention.
//
//hj17:hotpath
func (m *Medium) complete() {
	m.txActive = false
	m.idleStart = m.sim.Now()
	for i := range m.inFlight {
		g := &m.inFlight[i]
		g.q.node.txComplete(g.q, g.agg, g.collided, g.occupied)
		g.agg = nil // the aggregate may be recycled now
	}
	m.reschedule()
}
