package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"strex/internal/runcache"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/tpcc"
	"strex/internal/workload"
)

func replicateSpec(t *testing.T, seed uint64) ReplicateSpec {
	t.Helper()
	cfg := sim.DefaultConfig(2)
	cfg.Seed = seed
	return ReplicateSpec{Spec: Spec{
		Config: cfg,
		Set:    testSet(t, 12),
		Sched:  func() sim.Scheduler { return sched.NewStrex() },
	}}
}

func TestReplicateSeedConvention(t *testing.T) {
	const base = 42
	if got := ReplicateSeed(base, 0); got != base {
		t.Fatalf("replicate 0 seed = %d, want the verbatim base %d", got, base)
	}
	for rep := 1; rep < 10; rep++ {
		if got, want := ReplicateSeed(base, rep), DeriveSeed(base, rep); got != want {
			t.Fatalf("replicate %d seed = %d, want DeriveSeed = %d", rep, got, want)
		}
	}
	// Seed 0 stays 0 at replicate 0 (the facade's "use the default"
	// marker must survive) and is a real derived seed afterwards.
	if ReplicateSeed(0, 0) != 0 {
		t.Fatal("replicate 0 must not rewrite a zero base seed")
	}
	if ReplicateSeed(0, 1) == 0 {
		t.Fatal("derived replicate seeds must never be 0")
	}
}

// TestReplicateBatchParallelInvariance is the satellite edge case: the
// same replicate batch run serially (Parallel=1) and at full width
// produces identical per-replicate results, hence identical aggregates.
func TestReplicateBatchParallelInvariance(t *testing.T) {
	const n = 4
	serial := New(1).SubmitReplicates(replicateSpec(t, 42), n).Results()
	wide := New(runtime.GOMAXPROCS(0)).SubmitReplicates(replicateSpec(t, 42), n).Results()
	if len(serial) != n || len(wide) != n {
		t.Fatalf("replicate counts: serial %d, wide %d, want %d", len(serial), len(wide), n)
	}
	if !reflect.DeepEqual(statsOf(serial), statsOf(wide)) {
		t.Fatalf("serial and parallel replicate aggregates diverged:\n%+v\nvs\n%+v",
			statsOf(serial), statsOf(wide))
	}
}

// TestReplicateSeedsActuallyVary pins that derived replicates run at
// distinct config seeds: replicate 0 reproduces a plain submission and
// later replicates at least carry different seeds into the engine.
func TestReplicateSeedsActuallyVary(t *testing.T) {
	rs := replicateSpec(t, 42)
	batch := New(2).SubmitReplicates(rs, 3)
	single := New(1).Run(rs.Spec)
	if !reflect.DeepEqual(batch.Rep(0).Stats, single.Stats) {
		t.Fatal("replicate 0 diverged from the verbatim single-run spec")
	}
	seen := map[uint64]bool{}
	for rep := 0; rep < 3; rep++ {
		s := ReplicateSeed(42, rep)
		if seen[s] {
			t.Fatalf("duplicate replicate seed %d", s)
		}
		seen[s] = true
	}
}

// TestReplicatePanicFailsBatch is the satellite edge case: one
// panicking replicate must fail the whole batch (Results re-panics)
// without hanging the pool — later submissions still run.
func TestReplicatePanicFailsBatch(t *testing.T) {
	x := New(2)
	rs := replicateSpec(t, 42)
	var count atomic.Int32
	inner := rs.Sched
	rs.Sched = func() sim.Scheduler {
		// Scheduler factories run concurrently in worker goroutines, so
		// which replicate survives is scheduling-dependent; panicking on
		// all but one is enough — any failed replicate must fail the
		// batch.
		if count.Add(1) > 1 {
			panic("replicate blew up")
		}
		return inner()
	}
	// Guard against the "hangs the pool" failure mode with a timeout.
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		batch := x.SubmitReplicates(rs, 3)
		batch.Results()
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("batch with a panicking replicate did not fail")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replicate batch hung after a panic")
	}
	// The pool survives: a fresh healthy batch on the same executor.
	res := x.SubmitReplicates(replicateSpec(t, 7), 2).Results()
	if len(res) != 2 || res[0].Stats.Cycles == 0 {
		t.Fatalf("executor unusable after a panicked batch: %+v", statsOf(res))
	}
}

// TestReplicateSetFor exercises per-replicate trace draws: each
// replicate replays its own set, and the derived replicates see derived
// generation seeds when the caller wires ReplicateSeed through.
func TestReplicateSetFor(t *testing.T) {
	rs := replicateSpec(t, 42)
	sets := make([]*workload.Set, 3)
	for rep := range sets {
		sets[rep] = tpcc.New(tpcc.Config{Warehouses: 1, Seed: ReplicateSeed(7, rep)}).Generate(10)
	}
	var got []*workload.Set
	rs.SetFor = func(rep int) *workload.Set {
		got = append(got, sets[rep])
		return sets[rep]
	}
	results := New(2).SubmitReplicates(rs, 3).Results()
	if len(got) != 3 || got[0] != sets[0] || got[2] != sets[2] {
		t.Fatalf("SetFor not consulted per replicate: %v", got)
	}
	// Different trace draws must actually differ in outcome (same
	// instruction substrate, different transaction mix/order).
	if reflect.DeepEqual(results[0].Stats, results[1].Stats) &&
		reflect.DeepEqual(results[1].Stats, results[2].Stats) {
		t.Fatal("three distinct trace draws produced three identical results")
	}
}

// TestReplicateKeyFor pins the cache-key discipline: with no KeyFor,
// only replicate 0 keeps its key; with KeyFor, every replicate gets its
// own key derived from its own (seed-bearing) config.
func TestReplicateKeyFor(t *testing.T) {
	rs := replicateSpec(t, 42)
	rs.CacheKey = "rep0-key"
	var keys []string
	rs.KeyFor = func(rep int, cfg sim.Config) string {
		if want := ReplicateSeed(42, rep); cfg.Seed != want {
			t.Errorf("replicate %d KeyFor saw seed %d, want %d", rep, cfg.Seed, want)
		}
		k := "key-" + string(rune('a'+rep))
		keys = append(keys, k)
		return k
	}
	New(1).SubmitReplicates(rs, 3).Results()
	if len(keys) != 3 {
		t.Fatalf("KeyFor called %d times, want 3", len(keys))
	}
	// Without KeyFor the derived replicates must not inherit the
	// replicate-0 key (it addresses a different run). The executor has
	// no cache attached here, so the only observable is that the batch
	// still completes — the key-clearing rule itself is unit-logic:
	rs2 := replicateSpec(t, 42)
	rs2.CacheKey = "rep0-key"
	if res := New(1).SubmitReplicates(rs2, 2).Results(); len(res) != 2 {
		t.Fatal("keyless replicate batch failed")
	}
}

// TestReplicateLoadSetFor pins the lazy-set contract: a replicate whose
// record is in the disk cache never loads its set, one that misses
// loads it exactly once and replays it exactly as an eager replicate
// would, and a loader error fails only its own replicate.
func TestReplicateLoadSetFor(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	x := New(2)
	x.SetCache(cache)
	sets := make([]*workload.Set, 3)
	for rep := range sets {
		sets[rep] = tpcc.New(tpcc.Config{Warehouses: 1, Seed: ReplicateSeed(7, rep)}).Generate(10)
	}
	var loads [3]atomic.Int64
	lazy := func(keyed bool) ReplicateSpec {
		rs := replicateSpec(t, 42)
		rs.Set = nil
		rs.SchedID = "strex" // ignored: lazy specs never dedup
		rs.LoadSetFor = func(rep int) func() (*workload.Set, error) {
			return func() (*workload.Set, error) {
				loads[rep].Add(1)
				return sets[rep], nil
			}
		}
		if keyed {
			rs.KeyFor = func(rep int, cfg sim.Config) string {
				return runcache.RunKey{Config: cfg, Sched: "strex", SetID: fmt.Sprint("lazy-", rep)}.Hash()
			}
		}
		return rs
	}
	eager := replicateSpec(t, 42)
	eager.SetFor = func(rep int) *workload.Set { return sets[rep] }
	want := statsOf(New(1).SubmitReplicates(eager, 3).Results())

	cold := statsOf(x.SubmitReplicates(lazy(true), 3).Results())
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("lazy replicates diverged from eager ones:\n%+v\nvs\n%+v", cold, want)
	}
	for rep := range loads {
		if n := loads[rep].Load(); n != 1 {
			t.Fatalf("cold replicate %d loaded its set %d times, want 1", rep, n)
		}
	}
	warm := statsOf(x.SubmitReplicates(lazy(true), 3).Results())
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("cache-served lazy replicates diverged")
	}
	for rep := range loads {
		if n := loads[rep].Load(); n != 1 {
			t.Fatalf("warm replicate %d loaded its set (%d loads), want no load on a cache hit", rep, n)
		}
	}

	// A failing loader fails its replicate's future, never the executor.
	rs := lazy(false)
	rs.LoadSetFor = func(rep int) func() (*workload.Set, error) {
		if rep == 1 {
			return func() (*workload.Set, error) { return nil, errors.New("no such set") }
		}
		return func() (*workload.Set, error) { return sets[rep], nil }
	}
	b := x.SubmitReplicates(rs, 3)
	if _, err := b.WaitRep(1); err == nil || err.Error() != "no such set" {
		t.Fatalf("replicate with a failing loader: err = %v, want the loader's error", err)
	}
	for _, rep := range []int{0, 2} {
		if _, err := b.WaitRep(rep); err != nil {
			t.Fatalf("replicate %d failed with its neighbour's loader: %v", rep, err)
		}
	}
}
