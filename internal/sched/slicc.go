package sched

import "strex/internal/sim"

// Slicc reimplements the migration-based prior technique the paper
// compares against (Atta et al., MICRO 2012), following the description
// in Sections 3 and 5.5 of the STREX paper and the component budget in
// Table 4: each migrating thread keeps a short missed-tag queue and a
// miss shift-vector (a sliding window of recent fetch outcomes); every
// core exposes a cache signature that answers "do you hold these
// blocks?".
//
// Decision rule, evaluated when a thread's recent window shows a miss
// cluster (it is crossing into a new code segment):
//
//   - if some *other* core's L1-I already holds most of the recently
//     missed blocks, migrate there (a predecessor fetched that segment);
//   - otherwise, if this thread has already filled a cache's worth of
//     fresh blocks on the current core, spread: move to the core whose
//     queue is shortest and keep filling there, leaving the previous
//     segment behind for teammates.
//
// With enough cores the segments of a transaction type end up resident
// across distinct L1-Is and threads pipeline through them (Figure 3c).
// With too few cores the same mechanism thrashes: threads keep paying
// migration costs without ever finding their segments — which is exactly
// the performance cliff Figure 6 shows and STREX avoids.
type Slicc struct {
	e *sim.Engine

	// queues[c] holds threads waiting to run on core c (FIFO).
	queues []runQueue
	// teamSize bounds in-flight threads to 2N (paper Section 5.1).
	inFlight int
	// entryCore pins each transaction type (header) to the core where
	// its first segment gets built, so same-type threads enter the
	// pipeline at the same place and chase their predecessors through
	// the segment chain instead of all rebuilding segment 0 on separate
	// cores. SLICC forms teams of same-type threads for exactly this
	// reason (Section 5.1: "SLICC forms teams of up to 2N threads").
	entryCore map[uint32]int
	nextEntry int

	missQLen   int // missed-tag queue length
	window     int // shift-vector window (accesses)
	clusterAt  int // misses within window that signal a new segment
	matchAt    int // remote signature matches required to follow
	fillSpread int // fresh blocks fetched locally before spreading
	cooldown   int // accesses to wait after a migration
}

// runQueue is a FIFO ring of the threads waiting on one core. A queue
// never holds more than the 2N threads in flight, so Bind sizes every
// ring at 2N slots and a push never allocates.
type runQueue struct {
	buf     []*sim.Thread
	head, n int
}

func (q *runQueue) push(t *sim.Thread) {
	if q.n == len(q.buf) {
		panic("sched: SLICC run queue over the in-flight limit")
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

func (q *runQueue) pop() *sim.Thread {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

type sliccState struct {
	// missQ is a fixed ring of the last missQLen missed tags (hardware:
	// a 5-entry shift queue). A ring rather than a sliding slice keeps
	// the per-miss push allocation-free on the engine's hot path.
	missQ    [8]uint32
	missHead int
	missLen  int

	accesses   int
	recentMiss int // misses in current window
	windowLeft int
	fresh      int // blocks this thread brought into the current core
	cool       int
}

// pushMiss appends block to the missed-tag ring, dropping the oldest
// entry when the queue is at qlen.
func (st *sliccState) pushMiss(block uint32, qlen int) {
	if st.missLen == qlen {
		st.missQ[st.missHead] = block
		st.missHead = (st.missHead + 1) % qlen
		return
	}
	st.missQ[(st.missHead+st.missLen)%qlen] = block
	st.missLen++
}

// eachMiss invokes fn for each queued tag, oldest first.
func (st *sliccState) eachMiss(qlen int, fn func(block uint32)) {
	for i := 0; i < st.missLen; i++ {
		fn(st.missQ[(st.missHead+i)%qlen])
	}
}

// NewSlicc returns the scheduler with defaults matched to the paper's
// structures (missed-tag queue of 5 tags ≈ 60 bits, 100-access window).
func NewSlicc() *Slicc {
	return &Slicc{
		missQLen:   5,
		window:     100,
		clusterAt:  3,
		matchAt:    2,
		fillSpread: 448, // ~87% of a 512-block L1-I
		cooldown:   100,
	}
}

// Name implements sim.Scheduler.
func (s *Slicc) Name() string { return "SLICC" }

// Hooks implements sim.Scheduler: SLICC's cache monitor samples every
// instruction fetch — hits age the shift-vector window, misses feed the
// missed-tag queue — so it claims both instruction categories. Hits are
// claimed in *batched* form: while no miss cluster is pending, a hit
// only performs counter arithmetic (HitRunOK/OnHitRun below), so the
// engine may collapse hit runs. HookRemoteCaches records that the
// migration rule reads other cores' L1-I contents, which obliges the
// engine to keep cache mutations in global order (no prefetch fills
// inside hit runs). Data accesses never drive SLICC.
func (s *Slicc) Hooks() sim.HookMask {
	return sim.HookIHitBatch | sim.HookIMiss | sim.HookRemoteCaches
}

// HitRunOK implements sim.Scheduler: hit events are pure counter
// arithmetic unless a miss cluster is pending (recentMiss at or above
// the cluster threshold with cooldown expired arms the migration
// decision, which can fire on a hit and reads remote signatures). The
// cluster count only grows on misses, and window rollovers during a
// hit run can only reset it, so "below threshold now" guarantees every
// hit in the run returns Continue.
func (s *Slicc) HitRunOK(coreID int) bool {
	cur := s.e.Core(coreID).Cur
	if cur == nil {
		return false
	}
	st, ok := cur.Scratch.(*sliccState)
	if !ok {
		return false
	}
	return st.recentMiss < s.clusterAt
}

// OnHitRun implements sim.Scheduler: apply the per-hit arithmetic of
// OnEvent (accesses++, windowLeft-- with reset at the window boundary,
// cooldown decay) for a whole run at once. Identical by construction to
// entries sequential per-entry deliveries given HitRunOK held at the
// start of the run.
func (s *Slicc) OnHitRun(coreID int, entries int, instrs uint64) {
	cur := s.e.Core(coreID).Cur
	if cur == nil {
		return
	}
	st, ok := cur.Scratch.(*sliccState)
	if !ok {
		return
	}
	st.accesses += entries
	if st.cool >= entries {
		st.cool -= entries
	} else {
		st.cool = 0
	}
	if st.windowLeft > entries {
		st.windowLeft -= entries
	} else {
		// The run crossed at least one window boundary: the cluster
		// count resets there, and the remainder ages the fresh window.
		over := entries - st.windowLeft
		st.recentMiss = 0
		st.windowLeft = s.window - over%s.window
	}
}

// Bind implements sim.Scheduler.
func (s *Slicc) Bind(e *sim.Engine) {
	s.e = e
	n := e.Cores()
	s.queues = make([]runQueue, n)
	slots := make([]*sim.Thread, n*2*n)
	for c := range s.queues {
		s.queues[c].buf = slots[c*2*n : (c+1)*2*n : (c+1)*2*n]
	}
	s.entryCore = make(map[uint32]int)
}

// Dispatch implements sim.Scheduler: run the local queue; refill the
// in-flight population (≤ 2N threads) from the pending window.
func (s *Slicc) Dispatch(coreID int) *sim.Thread {
	q := &s.queues[coreID]
	if q.n == 0 {
		s.refill()
	}
	if q.n == 0 {
		return nil
	}
	t := q.pop()
	if t.Scratch == nil {
		t.Scratch = &sliccState{windowLeft: s.window}
	}
	return t
}

// refill admits pending transactions up to the 2N in-flight limit,
// seeding each at its type's entry core.
func (s *Slicc) refill() {
	limit := 2 * s.e.Cores()
	for s.inFlight < limit {
		pending := s.e.Pending()
		if len(pending) == 0 {
			return
		}
		t := pending[0]
		s.e.TakePending(t)
		s.inFlight++
		c, ok := s.entryCore[t.Txn.Header]
		if !ok {
			// First sighting of this type: give it a fresh entry core,
			// spreading types round-robin.
			c = s.nextEntry % s.e.Cores()
			s.nextEntry++
			s.entryCore[t.Txn.Header] = c
		}
		s.queues[c].push(t)
	}
}

// Phase implements sim.Scheduler: SLICC does not tag phases.
func (s *Slicc) Phase(coreID int) (uint8, bool) { return 0, false }

// OnWouldEvict implements sim.Scheduler: SLICC never suppresses fills.
func (s *Slicc) OnWouldEvict(coreID int, victimPhase uint8) bool { return false }

// OnEvent implements sim.Scheduler: the cache-monitor logic above.
func (s *Slicc) OnEvent(coreID int, ev sim.Event) (sim.Action, int) {
	cur := s.e.Core(coreID).Cur
	if cur == nil {
		return sim.Continue, 0
	}
	st, ok := cur.Scratch.(*sliccState)
	if !ok {
		return sim.Continue, 0
	}
	if ev.Entry.Kind != 0 { // only instruction fetches drive SLICC
		return sim.Continue, 0
	}
	st.accesses++
	st.windowLeft--
	if st.cool > 0 {
		st.cool--
	}
	if ev.IMiss {
		st.recentMiss++
		st.fresh++
		st.pushMiss(ev.Entry.Block, s.missQLen)
	}
	if st.windowLeft <= 0 {
		st.recentMiss = 0
		st.windowLeft = s.window
	}
	if st.cool > 0 || st.recentMiss < s.clusterAt {
		return sim.Continue, 0
	}
	// Miss cluster: query remote signatures for the missed tags.
	best, bestScore := -1, 0
	for c := 0; c < s.e.Cores(); c++ {
		if c == coreID {
			continue
		}
		score := 0
		l1i := s.e.Core(c).L1I
		st.eachMiss(s.missQLen, func(b uint32) {
			if l1i.Contains(b) { // read-only snoop: no stats, no LRU disturbance
				score++
			}
		})
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	if best >= 0 && bestScore >= s.matchAt {
		st.reset(s)
		return sim.Migrate, best
	}
	// No core holds the new segment. If we have already filled this
	// core, spread to the least-loaded other core and build it there.
	if st.fresh >= s.fillSpread && s.e.Cores() > 1 {
		target := s.spreadTarget(coreID)
		st.reset(s)
		st.fresh = 0
		return sim.Migrate, target
	}
	return sim.Continue, 0
}

func (st *sliccState) reset(s *Slicc) {
	st.recentMiss = 0
	st.windowLeft = s.window
	st.cool = s.cooldown
	st.missHead, st.missLen = 0, 0
}

func (s *Slicc) spreadTarget(from int) int {
	best, bestLen := -1, int(^uint(0)>>1)
	for c := range s.queues {
		if c == from {
			continue
		}
		l := s.queues[c].n
		if s.e.Core(c).Cur != nil {
			l++
		}
		if l < bestLen {
			best, bestLen = c, l
		}
	}
	return best
}

// OnYield implements sim.Scheduler (SLICC yields only via migration).
func (s *Slicc) OnYield(coreID int, t *sim.Thread) {
	panic("sched: SLICC does not yield in place")
}

// OnMigrate implements sim.Scheduler: enqueue at the destination.
func (s *Slicc) OnMigrate(from, to int, t *sim.Thread) {
	s.queues[to].push(t)
}

// OnComplete implements sim.Scheduler.
func (s *Slicc) OnComplete(coreID int, t *sim.Thread) {
	s.inFlight--
}
