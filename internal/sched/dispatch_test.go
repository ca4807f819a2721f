package sched

import (
	"fmt"
	"testing"

	"strex/internal/sim"
	"strex/internal/tpcc"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Run offers idle cores only when an offer's outcome can have changed
// (the contract on sim.Scheduler.Dispatch); RunReference offers every
// idle core on every step. These tests pin that the two make the same
// placements, and that Run's offers stay bounded by the placements.

// dispatchRecorder wraps a scheduler, counting its Dispatch calls and
// recording each successful placement as (core, txn ID, core clock).
type dispatchRecorder struct {
	sim.Scheduler
	e      *sim.Engine
	offers int
	placed []string
}

func (r *dispatchRecorder) Bind(e *sim.Engine) {
	r.e = e
	r.Scheduler.Bind(e)
}

func (r *dispatchRecorder) Dispatch(core int) *sim.Thread {
	r.offers++
	t := r.Scheduler.Dispatch(core)
	if t != nil {
		r.placed = append(r.placed, fmt.Sprintf("core %d txn %d clock %d", core, t.Txn.ID, r.e.Core(core).Clock))
	}
	return t
}

// arrivalSchedules returns the open-loop schedules for n transactions:
// a stream with gaps below gap that admits mid-run while cores are
// busy, and bursts beyond 2^56 cycles whose gaps drain the machine, so
// admission must jump time forward to the next arrival.
func arrivalSchedules(n, gap int) []struct {
	name   string
	clocks []uint64
} {
	rng := xrand.New(5)
	dense := make([]uint64, n)
	bursts := make([]uint64, n)
	var at, burst uint64 = 0, 1 << 57
	for i := range dense {
		at += uint64(rng.Intn(gap))
		dense[i] = at
		if i%3 == 0 {
			burst += 1 << 32
		} else {
			burst += uint64(rng.Intn(gap))
		}
		bursts[i] = burst
	}
	return []struct {
		name   string
		clocks []uint64
	}{{"closed", nil}, {"dense", dense}, {"bursts", bursts}}
}

func TestDispatchPlacementsMatchReference(t *testing.T) {
	schedulers := []struct {
		name string
		mk   func(set *workload.Set, cores int) sim.Scheduler
	}{
		{"Base", func(*workload.Set, int) sim.Scheduler { return NewBaseline() }},
		{"STREX", func(*workload.Set, int) sim.Scheduler { return NewStrex() }},
		{"SLICC", func(*workload.Set, int) sim.Scheduler { return NewSlicc() }},
		{"Hybrid", newHybrid},
	}
	// TPC-C against a small L1-I makes STREX switch and SLICC migrate at
	// every core count, so quanta end by yield and migration as well as
	// by completion. The short random traces put many arrivals inside
	// hit runs.
	workloads := []struct {
		name      string
		set       *workload.Set
		l1iKB     int
		gap       int
		preempted bool // every non-Base scheduler ends quanta early
	}{
		{"tpcc", tpcc.New(tpcc.Config{Warehouses: 1, Seed: 42}).Generate(12), 8, 200_000, true},
		{"random", randomSetSized(3, 3, 24, 400), 2, 3000, false},
	}
	for _, w := range workloads {
		for _, arr := range arrivalSchedules(len(w.set.Txns), w.gap) {
			for _, cores := range []int{2, 3, 4, 8} {
				for _, s := range schedulers {
					name := fmt.Sprintf("%s/%s/%s/cores=%d", s.name, w.name, arr.name, cores)
					cfg := sim.DefaultConfig(cores)
					cfg.L1IKB = w.l1iKB
					var recs [2]*dispatchRecorder
					var res [2]sim.Result
					for i := range recs {
						recs[i] = &dispatchRecorder{Scheduler: s.mk(w.set, cores)}
						e := sim.New(cfg, w.set, recs[i])
						if arr.clocks != nil {
							e.SetArrivals(arr.clocks)
						}
						if i == 0 {
							res[i] = e.Run()
						} else {
							res[i] = e.RunReference()
						}
					}
					fast, ref := recs[0].placed, recs[1].placed
					if len(fast) != len(ref) {
						t.Errorf("%s: %d placements, reference %d", name, len(fast), len(ref))
					}
					for i := 0; i < len(fast) && i < len(ref); i++ {
						if fast[i] != ref[i] {
							t.Errorf("%s: placement %d is %q, reference %q", name, i, fast[i], ref[i])
							break
						}
					}
					if res[0].Stats != res[1].Stats {
						t.Errorf("%s: stats diverged\n fast: %+v\n  ref: %+v", name, res[0].Stats, res[1].Stats)
					}
					if w.preempted && arr.clocks == nil && s.name != "Base" && len(fast) <= len(w.set.Txns) {
						t.Errorf("%s: %d placements for %d transactions: no quantum ended early, coverage lost", name, len(fast), len(w.set.Txns))
					}
				}
			}
		}
	}
}

// TestDispatchOffersBounded guards the offer rule's saving: every round
// of offers follows the start, a placement round or the end of a
// quantum, so Run makes at most cores x (2 x placements + 1) Dispatch
// calls. Offering every idle core after every step made 165,931 (Base),
// 1,343,450 (STREX) and 767,880 (SLICC) here.
func TestDispatchOffersBounded(t *testing.T) {
	const cores = 4
	for _, s := range []sim.Scheduler{NewBaseline(), NewStrex(), NewSlicc()} {
		r := &dispatchRecorder{Scheduler: s}
		sim.New(sim.DefaultConfig(cores), tpccSet, r).Run()
		if bound := cores * (2*len(r.placed) + 1); r.offers > bound {
			t.Errorf("%s: %d Dispatch calls for %d placements, want at most %d", s.Name(), r.offers, len(r.placed), bound)
		}
	}
}
