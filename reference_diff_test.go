package strex

// Differential property test for the engine's fast paths: every
// registered workload is executed twice at the same seed — once through
// the production engine (Run: the solo loop, hit runs, the heap-driven
// step loop) and once through the retained per-entry oracle
// (RunReference) — and the two must agree on Stats and on every
// per-thread cycle stamp. The sweep covers both engine shapes: one core
// (the solo replay loop, where whole quanta replay in a tight pass) and
// two cores (the heap-driven step loop, where hit runs batch
// scheduler-inert stretches), under an untagged scheduler (Baseline)
// and a phase-tagging one (STREX).

import (
	"reflect"
	"testing"

	"strex/internal/bench"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/workload"
)

// threadStamps projects a result to its finest-grained observable.
func threadStamps(r sim.Result) [][3]uint64 {
	out := make([][3]uint64, len(r.Threads))
	for i, th := range r.Threads {
		out[i] = [3]uint64{th.EnqueueCycle, th.StartCycle, th.FinishCycle}
	}
	return out
}

func diffRun(t *testing.T, label string, cfg sim.Config, set *workload.Set, mk func() sim.Scheduler) {
	t.Helper()
	got := sim.New(cfg, set, mk()).Run()
	want := sim.New(cfg, set, mk()).RunReference()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: Stats diverged from reference\nrun: %+v\nref: %+v",
			label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(threadStamps(got), threadStamps(want)) {
		t.Errorf("%s: per-thread cycle stamps diverged from reference", label)
	}
}

func TestRunMatchesReferenceOnEveryWorkload(t *testing.T) {
	scheds := []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"base", func() sim.Scheduler { return sched.NewBaseline() }},
		{"strex", func() sim.Scheduler { return sched.NewStrex() }},
	}
	for _, info := range bench.Workloads() {
		t.Run(info.Name, func(t *testing.T) {
			set, err := bench.BuildSet(info.Name, 8, bench.Options{Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, cores := range []int{1, 2} {
				for _, s := range scheds {
					cfg := sim.DefaultConfig(cores)
					cfg.Seed = 23
					diffRun(t, s.name+"/cores="+itoa(cores), cfg, set, s.mk)
				}
			}
		})
	}
}
