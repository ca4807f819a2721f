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

// TestSharedLazyDraws runs one set of lazily built draws from two
// goroutines at once, Base and STREX, on a pool over a cold cache: each
// draw is generated exactly once, through the pool's cache handle, and
// the results equal an uncached run. Run it under -race: both cells
// materialize the same draws concurrently.
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

	kinds := []strex.SchedulerKind{strex.SchedBaseline, strex.SchedSTREX}
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
		t.Fatalf("two cells over %d shared draws generated %d sets, want one per draw", seeds, g)
	}
	if st := pool.CacheStats(); st.TraceMisses != seeds || st.TraceHits != 0 {
		t.Fatalf("pool trace hits/misses = %d/%d, want 0/%d", st.TraceHits, st.TraceMisses, seeds)
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
