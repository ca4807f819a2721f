package strex_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"strex"
	"strex/internal/bench"
	"strex/internal/runcache"
)

// TestSharedLazyDraws runs one set of lazily built draws from four
// goroutines at once, Base, STREX and two hybrid cells, on a pool over a
// cold cache: each draw is generated exactly once, through the pool's
// cache handle, and profiled once, and the results equal an uncached
// run. Run it under -race: the cells materialize and profile the same
// draws concurrently.
func TestSharedLazyDraws(t *testing.T) {
	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := strex.NewPool(4, cache)
	cfg := strex.DefaultConfig(2)
	wopts := strex.WorkloadOptions{Txns: 20, Seed: 4, CacheDir: dir}
	const seeds = 3
	before := bench.Generations()
	draws, err := strex.ReplicateWorkloads("TATP", wopts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if g := bench.Generations() - before; g != 0 {
		t.Fatalf("building lazy draws generated %d sets, want 0", g)
	}

	kinds := []strex.SchedulerKind{strex.SchedBaseline, strex.SchedSTREX, strex.SchedHybrid, strex.SchedHybrid}
	got := make([]*strex.ReplicatedResult, len(kinds))
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func(i int, kind strex.SchedulerKind) {
			defer wg.Done()
			got[i], _, errs[i] = pool.RunDrawsCtx(context.Background(), cfg, draws, kind, nil)
		}(i, kind)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%v: %v", kinds[i], err)
		}
	}
	if g := bench.Generations() - before; g != seeds {
		t.Fatalf("four cells over %d shared draws generated %d sets, want one per draw", seeds, g)
	}
	if st := pool.CacheStats(); st.TraceMisses != seeds || st.TraceHits != 0 || st.FootprintMisses != seeds || st.FootprintHits != 0 {
		t.Fatalf("pool trace hits/misses = %d/%d, footprint hits/misses = %d/%d, want 0/%d for both",
			st.TraceHits, st.TraceMisses, st.FootprintHits, st.FootprintMisses, seeds)
	}

	uncached := wopts
	uncached.CacheDir = ""
	for i, kind := range kinds {
		want, err := strex.RunReplicated(cfg, "TATP", uncached, kind, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%v over shared lazy draws diverged from an uncached run:\n%+v\nvs\n%+v", kind, got[i], want)
		}
	}
}

// TestHybridRunsAsItsPick: a hybrid run is the run of the mechanism the
// hybrid picks — STREX at the paper's team size of 10 whatever the
// config's, or SLICC — labelled STREX+SLICC(<mechanism>). On a pool it
// runs and caches under that mechanism's run key, so a hybrid cell over
// draws a STREX cell already ran simulates nothing and, once its
// footprint records are written, reads no trace.
func TestHybridRunsAsItsPick(t *testing.T) {
	hcfg := strex.DefaultConfig(2)
	hcfg.TeamSize = 4 // the hybrid's STREX keeps the paper's 10
	for _, tc := range []struct {
		workload string
		inner    strex.SchedulerKind
	}{{"TPC-C-1", strex.SchedSTREX}, {"MapReduce", strex.SchedSLICC}} {
		w, err := strex.BuildWorkload(tc.workload, strex.WorkloadOptions{Txns: 24, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := strex.Run(hcfg, w, strex.SchedHybrid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := strex.Run(strex.DefaultConfig(2), w, tc.inner)
		if err != nil {
			t.Fatal(err)
		}
		if label := "STREX+SLICC(" + want.Scheduler + ")"; got.Scheduler != label {
			t.Fatalf("%s: hybrid labelled %q, want %q", tc.workload, got.Scheduler, label)
		}
		got.Scheduler = want.Scheduler
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: hybrid run differs from %v's:\n%+v\nvs\n%+v", tc.workload, tc.inner, got, want)
		}
	}

	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 2
	wopts := strex.WorkloadOptions{Txns: 24, Seed: 3, CacheDir: dir}
	draws := func() []*strex.Workload {
		ds, err := strex.ReplicateWorkloads("TPC-C-1", wopts, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	pool := strex.NewPool(2, cache)
	ctx := context.Background()
	want, gens, err := pool.RunDrawsCtx(ctx, strex.DefaultConfig(2), draws(), strex.SchedSTREX, nil)
	if err != nil || gens != seeds {
		t.Fatalf("STREX cell: %d generations, err %v", gens, err)
	}
	for pass := 0; pass < 2; pass++ {
		before := pool.CacheStats()
		got, gens, err := pool.RunDrawsCtx(ctx, hcfg, draws(), strex.SchedHybrid, nil)
		if err != nil || gens != 0 {
			t.Fatalf("hybrid pass %d: %d generations, err %v", pass, gens, err)
		}
		for rep := range got.Results {
			if got.Results[rep].Scheduler != "STREX+SLICC(STREX)" {
				t.Fatalf("hybrid pass %d replicate %d labelled %q", pass, rep, got.Results[rep].Scheduler)
			}
			got.Results[rep].Scheduler = want.Results[rep].Scheduler
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hybrid pass %d differs from the STREX cell", pass)
		}
		st := pool.CacheStats()
		if pass == 1 && (st.TraceHits != before.TraceHits || st.TraceMisses != before.TraceMisses ||
			st.FootprintHits-before.FootprintHits != seeds) {
			t.Fatalf("warm hybrid pass: trace hits %d->%d misses %d->%d, footprint hits %d->%d",
				before.TraceHits, st.TraceHits, before.TraceMisses, st.TraceMisses, before.FootprintHits, st.FootprintHits)
		}
	}
}
