package sim

import (
	"fmt"

	"strex/internal/cache"
	"strex/internal/prefetch"
	"strex/internal/trace"
)

// Stepper is the trace-consumption substrate shared by the CMP engine
// and the SMT model (internal/smt): an L1-I/L1-D pair plus the rules
// for executing one run-length-encoded trace entry against it — an
// instruction entry accesses the L1-I once (optionally phase-tagging
// the touched line, STREX rule 2), a load or store accesses the L1-D.
// Timing, scheduling and event delivery stay with the caller: the CMP
// engine layers miss latencies and scheduler hooks on top, the SMT
// model counts misses only. Both replaying through the same primitive
// is what keeps their cache behaviour definitionally consistent.
type Stepper struct {
	L1I *cache.Cache
	L1D *cache.Cache
}

// Exec executes one entry against the L1 pair and returns the access
// result. phaseID/tagPhase mirror Scheduler.Phase: when tagPhase is
// set, instruction touches tag the line with phaseID.
func (s Stepper) Exec(e trace.Entry, phaseID uint8, tagPhase bool) cache.AccessResult {
	switch e.Kind {
	case trace.KInstr:
		if tagPhase {
			return s.L1I.Touch(e.Block, phaseID)
		}
		return s.L1I.Access(e.Block, false)
	case trace.KLoad:
		return s.L1D.Access(e.Block, false)
	case trace.KStore:
		return s.L1D.Access(e.Block, true)
	}
	panic(fmt.Sprintf("sim: bad trace entry kind %d", e.Kind))
}

// HitRun consumes the longest prefix of cur consisting of instruction
// entries that hit in the L1-I, returning the instructions retired and
// the entries consumed. Each consumed entry is fully accounted in the
// cache (hit statistics, replacement promotion, phase tag), and when pf
// is non-nil the prefetcher observes each fetch exactly as on the slow
// path. The first entry that is a data access, an L1-I miss, or a hit
// on a not-yet-demanded prefetched line is left unconsumed for the
// caller's slow path. The run also always leaves the trace's final
// entry unconsumed: completing a thread is a scheduler-visible event,
// so the CMP engine must sequence it against the other cores' clocks
// rather than run it ahead of order.
//
// Exactness: an instruction hit reads and promotes a line in a private
// cache and advances private retirement counters — and a prefetcher's
// on-fetch insert mutates the same private cache — so nothing here
// touches shared state (no memory system, no demand fill of shared
// arrays). A caller that owes no per-hit notifications (Scheduler.Hooks
// without HookIHit, or batched via HookIHitBatch) can therefore execute
// a whole run of hits atomically, out of global clock order, without
// any observable difference — unless some scheduler reads remote cache
// contents (HookRemoteCaches), in which case prefetch mutations must
// stay in order and the engine passes pf=nil or disables the run. See
// docs/ENGINE.md for the full argument.
func (s Stepper) HitRun(cur *trace.Cursor, phaseID uint8, tagPhase bool, pf prefetch.Prefetcher) (instrs uint64, entries int) {
	l1i := s.L1I
	rest := cur.Rest()
	n := 0
	for n < len(rest)-1 {
		e := rest[n]
		if e.Kind != trace.KInstr || !l1i.AccessHit(e.Block, phaseID, tagPhase) {
			break
		}
		instrs += uint64(e.N)
		n++
		if pf != nil {
			pf.OnIFetch(l1i, e.Block, true)
		}
	}
	cur.Advance(n)
	return instrs, n
}
