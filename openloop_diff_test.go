package strex

// Differential gate for open-loop admission. Two pinned equivalences:
//
//  1. Infinite offered load IS the closed loop: arming arrivals with an
//     all-zero schedule must reproduce the arrival-free run bit for bit
//     — same Stats, same per-thread cycle stamps — for every registered
//     workload, under both execution loops (Run and RunReference), at
//     one and four cores, untagged (Baseline) and tagged (STREX). This
//     is what licenses threading admission through the hot loops: if it
//     holds, closed-loop results cannot have moved.
//
//  2. At finite rates, Run and RunReference stay step-for-step
//     equivalent: admission is a pure function of the machine's time
//     frontier, and Run's hit runs stop short of the next arrival, so
//     the production loop and the retained oracle admit at the same
//     point of the global clock order.

import (
	"reflect"
	"testing"

	"strex/internal/arrival"
	"strex/internal/bench"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/workload"
)

func openLoopScheds() []struct {
	name string
	mk   func() sim.Scheduler
} {
	return []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"base", func() sim.Scheduler { return sched.NewBaseline() }},
		{"strex", func() sim.Scheduler { return sched.NewStrex() }},
	}
}

// runWith executes set once, arming clocks first when non-nil.
func runWith(cfg sim.Config, set *workload.Set, mk func() sim.Scheduler, clocks []uint64, reference bool) sim.Result {
	e := sim.New(cfg, set, mk())
	if clocks != nil {
		e.SetArrivals(clocks)
	}
	if reference {
		return e.RunReference()
	}
	return e.Run()
}

func TestOpenLoopInfiniteRateMatchesClosedLoop(t *testing.T) {
	t.Parallel()
	for _, info := range bench.Workloads() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			set, err := bench.BuildSet(info.Name, 8, bench.Options{Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			zeros := make([]uint64, len(set.Txns))
			for _, cores := range []int{1, 4} {
				for _, s := range openLoopScheds() {
					cfg := sim.DefaultConfig(cores)
					cfg.Seed = 23
					for _, ref := range []bool{false, true} {
						label := s.name + "/cores=" + itoa(cores)
						if ref {
							label += "/reference"
						}
						closed := runWith(cfg, set, s.mk, nil, ref)
						open := runWith(cfg, set, s.mk, zeros, ref)
						if !reflect.DeepEqual(open.Stats, closed.Stats) {
							t.Errorf("%s: infinite-rate open loop diverged from closed loop\nopen:   %+v\nclosed: %+v",
								label, open.Stats, closed.Stats)
						}
						if !reflect.DeepEqual(threadStamps(open), threadStamps(closed)) {
							t.Errorf("%s: per-thread stamps diverged at infinite rate", label)
						}
					}
				}
			}
		})
	}
}

func TestOpenLoopRunMatchesReference(t *testing.T) {
	t.Parallel()
	specs := []arrival.Spec{
		{Kind: arrival.Poisson, Rate: 0.05, Seed: 7},
		{Kind: arrival.MMPP, Rate: 0.1, Burst: 16, Period: 2, Seed: 9},
		{Kind: arrival.Fixed, Rate: 0.02},
	}
	for _, info := range []string{"TPC-C-1", "TATP", "Synth"} {
		info := info
		t.Run(info, func(t *testing.T) {
			t.Parallel()
			set, err := bench.BuildSet(info, 12, bench.Options{Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				clocks := spec.Schedule(len(set.Txns))
				for _, cores := range []int{1, 4} {
					for _, s := range openLoopScheds() {
						cfg := sim.DefaultConfig(cores)
						cfg.Seed = 31
						label := spec.ID() + "/" + s.name + "/cores=" + itoa(cores)
						got := runWith(cfg, set, s.mk, clocks, false)
						want := runWith(cfg, set, s.mk, clocks, true)
						if !reflect.DeepEqual(got.Stats, want.Stats) {
							t.Errorf("%s: open-loop Run diverged from reference\nrun: %+v\nref: %+v",
								label, got.Stats, want.Stats)
						}
						if !reflect.DeepEqual(threadStamps(got), threadStamps(want)) {
							t.Errorf("%s: per-thread stamps diverged from reference", label)
						}
						for i, th := range got.Threads {
							if th.EnqueueCycle != clocks[i] {
								t.Fatalf("%s: txn %d enqueue stamp %d != arrival clock %d",
									label, i, th.EnqueueCycle, clocks[i])
							}
							if th.StartCycle < th.EnqueueCycle {
								t.Fatalf("%s: txn %d started at %d before its arrival %d",
									label, i, th.StartCycle, th.EnqueueCycle)
							}
						}
					}
				}
			}
		})
	}
}

// TestRunOpenLoopDeterministic pins the facade: identical tenant specs
// yield byte-identical results, and a different arrival seed moves the
// latency tables.
func TestRunOpenLoopDeterministic(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(2)
	tenants := []TenantSpec{
		{Workload: "tpcc1", Options: WorkloadOptions{Txns: 10, Seed: 3}, Arrival: ArrivalSpec{Process: "poisson", Rate: 0.05}},
		{Workload: "tatp", Options: WorkloadOptions{Txns: 8, Seed: 4}, Arrival: ArrivalSpec{Process: "mmpp", Rate: 0.1}},
	}
	a, err := RunOpenLoop(cfg, tenants, SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOpenLoop(cfg, tenants, SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same tenant specs produced different results:\n%+v\n%+v", a, b)
	}
	if len(a.Tenants) != 2 || a.Tenants[0].Txns != 10 || a.Tenants[1].Txns != 8 {
		t.Fatalf("tenant attribution wrong: %+v", a.Tenants)
	}
	if a.Overall.Txns != 18 {
		t.Fatalf("overall txns = %d, want 18", a.Overall.Txns)
	}
	if a.Overall.Sojourn.P99 < a.Overall.Sojourn.P50 {
		t.Fatalf("quantiles out of order: %+v", a.Overall.Sojourn)
	}

	reseeded := []TenantSpec{tenants[0], tenants[1]}
	reseeded[0].Arrival.Seed = 991
	c, err := RunOpenLoop(cfg, reseeded, SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Overall.Sojourn, c.Overall.Sojourn) {
		t.Fatalf("different arrival seed left latency table unchanged: %+v", a.Overall.Sojourn)
	}
}
