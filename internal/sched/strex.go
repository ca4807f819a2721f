package sched

import (
	"strex/internal/core"
	"strex/internal/sim"
)

// Strex implements the paper's stratified execution scheduler
// (Section 4.2/4.3). Per core it keeps a team (circular thread queue),
// an 8-bit phaseID counter, and reacts to victim-block events from the
// L1-I: evicting a block tagged with the *current* phase context-switches
// the running transaction to the tail of the queue. The lead increments
// the phase counter whenever it resumes.
type Strex struct {
	e   *sim.Engine
	cfg core.FormationConfig

	perCore []strexCore
	// window and members are formTeam's candidate and member buffers,
	// reused by every formation. A thread's core.ThreadID is its
	// sim.Thread.Index, so no map ties the two together.
	window  []core.Candidate
	members []core.Candidate
}

type strexCore struct {
	team   core.Team // reused by every team the core forms
	formed bool      // team holds a formed team; false once it drains
	phase  core.PhaseCounter
}

// NewStrex builds the scheduler with the paper's defaults (window 30,
// team size 10).
func NewStrex() *Strex { return NewStrexSized(core.DefaultFormation()) }

// NewStrexSized builds the scheduler with an explicit formation
// configuration (Figures 7/8 sweep the team size).
func NewStrexSized(cfg core.FormationConfig) *Strex {
	if cfg.TeamSize <= 0 {
		cfg.TeamSize = 10
	}
	if cfg.Window <= 0 {
		cfg.Window = 30
	}
	return &Strex{cfg: cfg}
}

// Name implements sim.Scheduler.
func (s *Strex) Name() string { return "STREX" }

// Hooks implements sim.Scheduler: all of STREX's preemption runs
// through the victim block monitor (OnWouldEvict), which only fires on
// fills — instruction hits, misses-after-the-fact and data accesses
// carry no information for it, so OnEvent is never needed and the
// engine's hit-run fast path applies even on phase-tagged cores.
func (s *Strex) Hooks() sim.HookMask { return sim.HookWouldEvict }

// TeamSize returns the configured maximum team size.
func (s *Strex) TeamSize() int { return s.cfg.TeamSize }

// Bind implements sim.Scheduler. Re-binding resets every per-core
// structure in place, so a scheduler bound to a same-shaped engine again
// allocates nothing.
func (s *Strex) Bind(e *sim.Engine) {
	s.e = e
	n := e.Cores()
	if cap(s.perCore) < n {
		s.perCore = make([]strexCore, n)
	}
	s.perCore = s.perCore[:n]
	for i := range s.perCore {
		sc := &s.perCore[i]
		sc.team.Reset(0)
		sc.formed = false
		sc.phase.Reset()
	}
}

// Dispatch implements sim.Scheduler: pop the core's team queue; when the
// team drains, form the next team from the pending window (rule 6: the
// core becomes available for another team).
func (s *Strex) Dispatch(coreID int) *sim.Thread {
	sc := &s.perCore[coreID]
	for {
		if sc.formed {
			if id, ok := sc.team.Pop(); ok {
				t := s.e.Thread(int(id))
				if sc.team.IsLead(id) {
					// Rule 2: whenever the lead resumes execution, it
					// increments the phaseID counter.
					sc.phase.Increment()
				}
				return t
			}
			sc.formed = false // drained
		}
		if !s.formTeam(coreID) {
			return nil
		}
	}
}

// formTeam claims the next team from the pending window. Returns false
// when no pending work remains.
func (s *Strex) formTeam(coreID int) bool {
	pending := s.e.Pending()
	if len(pending) == 0 {
		return false
	}
	s.window = s.window[:0]
	for i, t := range pending {
		s.window = append(s.window, core.Candidate{ID: core.ThreadID(t.Index()), Header: t.Txn.Header, Arrival: i})
	}
	s.members = core.FormTeam(s.members[:0], s.window, s.cfg)
	sc := &s.perCore[coreID]
	sc.team.Reset(s.members[0].Header)
	for _, m := range s.members {
		sc.team.Add(m.ID)
		s.e.TakePending(s.e.Thread(int(m.ID)))
	}
	sc.formed = true
	sc.phase.Reset()
	return true
}

// Phase implements sim.Scheduler: STREX tags every touched block with
// the core's current phaseID.
func (s *Strex) Phase(coreID int) (uint8, bool) {
	return s.perCore[coreID].phase.Value(), true
}

// minProgressInstrs is the minimum number of instructions a thread must
// retire per scheduling quantum before the victim monitor may switch it
// out. Without it, a transaction that diverges from the lead would be
// switched with zero progress every round (Section 4.4.1 discusses the
// scenario; Section 4.4.2 suggests exactly this guard). It also bounds
// switch frequency, amortizing the save/restore cost.
const minProgressInstrs = 256

// OnWouldEvict implements the victim block monitoring unit (rule 3):
// when a fill is about to displace a block tagged with the *current*
// phaseID — a block some teammate still needs — the running transaction
// is context-switched instead, and the fill is suppressed. Threads
// running solo (singleton teams) never switch: nobody shares the cache.
func (s *Strex) OnWouldEvict(coreID int, victimPhase uint8) bool {
	sc := &s.perCore[coreID]
	if !sc.formed || sc.team.Size() == 0 {
		return false
	}
	if victimPhase != sc.phase.Value() {
		return false
	}
	return s.e.Core(coreID).QInstrs >= minProgressInstrs
}

// OnEvent implements sim.Scheduler. All of STREX's preemption happens in
// OnWouldEvict, before blocks are lost; completed evictions of old-phase
// blocks are exactly the evictions STREX permits.
func (s *Strex) OnEvent(coreID int, ev sim.Event) (sim.Action, int) {
	return sim.Continue, 0
}

// HitRunOK implements sim.Scheduler (unreachable: no HookIHitBatch).
func (s *Strex) HitRunOK(core int) bool { return true }

// OnHitRun implements sim.Scheduler (unreachable: no HookIHitBatch).
func (s *Strex) OnHitRun(core int, entries int, instrs uint64) {}

// OnYield implements sim.Scheduler: the switched thread goes to the tail
// of its team's queue.
func (s *Strex) OnYield(coreID int, t *sim.Thread) {
	s.perCore[coreID].team.Requeue(core.ThreadID(t.Index()))
}

// OnMigrate implements sim.Scheduler (STREX never migrates).
func (s *Strex) OnMigrate(from, to int, t *sim.Thread) {
	panic("sched: STREX never migrates")
}

// OnComplete implements sim.Scheduler: if the lead finished, the next
// thread in the queue becomes lead (rule 4).
func (s *Strex) OnComplete(coreID int, t *sim.Thread) {
	sc := &s.perCore[coreID]
	if !sc.formed {
		return
	}
	if sc.team.IsLead(core.ThreadID(t.Index())) {
		sc.team.RetireLead()
	}
}
