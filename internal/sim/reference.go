package sim

import (
	"fmt"

	"strex/internal/trace"
)

// RunReference executes the workload with the retained naive selector:
// one trace entry per iteration, the lagging core found by an O(cores)
// scan, Phase consulted per entry and every hook invoked regardless of
// the scheduler's HookMask. It is the pre-event-core execution loop,
// kept verbatim as the differential-testing oracle: Run must produce
// byte-identical Stats and per-thread cycle stamps at the same seed
// (see the cross-implementation property test in internal/sched).
//
// An Engine runs a workload once; use either Run or RunReference, not
// both.
func (e *Engine) RunReference() Result {
	for e.live > 0 {
		if e.arr != nil {
			busy := false
			for _, c := range e.cores {
				if c.Cur != nil {
					busy = true
					break
				}
			}
			e.admitArrivals(busy)
		}
		// Offer work to idle cores.
		for _, c := range e.cores {
			if c.Cur == nil {
				if t := e.sched.Dispatch(c.ID); t != nil {
					e.install(c, t)
				}
			}
		}
		// Execute one entry on the lagging busy core (min clock), which
		// approximates concurrent execution across cores.
		var busy *Core
		for _, c := range e.cores {
			if c.Cur != nil && (busy == nil || c.Clock < busy.Clock) {
				busy = c
			}
		}
		if busy == nil {
			panic("sim: live threads but no runnable core (scheduler dropped a thread)")
		}
		before := busy.Clock
		e.stepReference(busy)
		e.busyCycles += busy.Clock - before
	}
	return e.collect()
}

// stepReference executes one trace entry on core c, consulting every
// scheduler hook unconditionally (the pre-HookMask contract).
func (e *Engine) stepReference(c *Core) {
	t := c.Cur
	entry := t.Cursor.Peek()
	var ev Event
	ev.Entry = entry

	ph, tagged := e.sched.Phase(c.ID)

	// STREX's switch-before-evict: if filling this instruction block
	// would displace a block the scheduler still wants resident, context
	// switch without consuming the entry — the fetch replays on resume.
	if tagged && entry.Kind == trace.KInstr {
		if victimPhase, would := c.L1I.WouldEvict(entry.Block); would {
			if e.sched.OnWouldEvict(c.ID, victimPhase) {
				c.Clock += uint64(e.mem.Lat().SwitchCost)
				c.Switches++
				t.ReadyAt = c.Clock
				c.Cur = nil
				e.sched.OnYield(c.ID, t)
				return
			}
		}
	}

	t.Cursor.Next()
	switch entry.Kind {
	case trace.KInstr:
		c.Clock += uint64(entry.N) // 1 IPC
		t.Instrs += uint64(entry.N)
		c.QInstrs += uint64(entry.N)
		r := c.Exec(entry, ph, tagged)
		if !r.Hit {
			ev.IMiss = true
			lat := e.mem.FetchI(c.ID, entry.Block)
			if !e.pf.HidesMisses() {
				c.Clock += uint64(lat)
			}
		} else if r.PrefetchHit {
			// A late next-line prefetch hides most but not all latency.
			c.Clock += uint64(e.mem.Lat().L2Hit / 2)
		}
		e.pf.OnIFetch(c.L1I, entry.Block, r.Hit)

	case trace.KLoad, trace.KStore:
		write := entry.Kind == trace.KStore
		c.Clock++ // address generation / pipeline slot
		if r := c.Exec(entry, 0, false); !r.Hit {
			c.Clock += uint64(e.mem.FetchD(c.ID, entry.Block, write))
		} else if write {
			c.Clock += uint64(e.mem.WriteHit(c.ID, entry.Block))
		} else {
			e.mem.ReadHit(c.ID, entry.Block)
		}
	}

	if t.Cursor.Done() {
		e.finish(c, t)
		return
	}

	act, target := e.sched.OnEvent(c.ID, ev)
	switch act {
	case Continue:
	case Yield:
		c.Clock += uint64(e.mem.Lat().SwitchCost)
		c.Switches++
		t.ReadyAt = c.Clock
		c.Cur = nil
		e.sched.OnYield(c.ID, t)
	case Migrate:
		if target == c.ID || target < 0 || target >= len(e.cores) {
			panic(fmt.Sprintf("sim: bad migration target %d", target))
		}
		c.Clock += uint64(e.mem.Lat().MigrateCost) / 2 // send half
		c.Migrations++
		t.ReadyAt = c.Clock + uint64(e.mem.Lat().MigrateCost)/2 // receive half
		c.Cur = nil
		e.sched.OnMigrate(c.ID, target, t)
	}
}
