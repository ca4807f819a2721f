package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"strex/internal/runcache"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/tpcc"
	"strex/internal/workload"
)

// bigSet is a workload long enough that a run takes hundreds of
// milliseconds (~350ms at 100 TPC-C transactions on a 2-core config) —
// the mid-run cancellation tests need the engine to be demonstrably
// inside Run when the context fires a few milliseconds in.
var bigSet = sync.OnceValue(func() *workload.Set {
	return tpcc.New(tpcc.Config{Warehouses: 1, Seed: 11}).Generate(100)
})

func TestCancelBeforeStart(t *testing.T) {
	set := testSet(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run can start
	x := New(1)
	f := x.Submit(Spec{
		Ctx:    ctx,
		Config: sim.DefaultConfig(2),
		Set:    set,
		Sched:  func() sim.Scheduler { return sched.NewBaseline() },
	})
	res, err := f.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if res.Stats.Instrs != 0 || f.Executed() || f.FromCache() {
		t.Fatalf("pre-cancelled run leaked work: res=%+v executed=%v cached=%v",
			res.Stats, f.Executed(), f.FromCache())
	}
	if x.Completed() != 1 {
		t.Fatalf("cancelled run not drained: completed=%d", x.Completed())
	}
}

// TestCancelMidRun cancels a long run shortly after it starts — on both
// the single-core (runSolo) and multi-core (heap) engine paths — and
// verifies the run stops early with the context's error, and that the
// executor stays healthy afterwards (the abandoned engine must not
// poison the pool).
func TestCancelMidRun(t *testing.T) {
	set := bigSet()
	for _, cores := range []int{1, 2} {
		x := New(1)
		cfg := sim.DefaultConfig(cores)
		cfg.Seed = 5
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		f := x.Submit(Spec{
			Ctx: ctx, Config: cfg, Set: set,
			Sched: func() sim.Scheduler { return sched.NewBaseline() },
		})
		time.Sleep(5 * time.Millisecond)
		cancel()
		_, err := f.Wait()
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			// The run outracing a 5ms cancel would mean the workload is far
			// too small to exercise the mid-run path at all.
			t.Fatalf("cores=%d: Wait error = %v, want context.Canceled (run took %v)", cores, err, elapsed)
		}
		if f.Executed() {
			t.Fatalf("cores=%d: cancelled run reported Executed", cores)
		}

		// A fresh uncancelled run on the same executor must still be exact.
		small := testSet(t, 8)
		scfg := sim.DefaultConfig(cores)
		scfg.Seed = 9
		mk := func() sim.Scheduler { return sched.NewStrex() }
		got := x.Run(Spec{Config: scfg, Set: small, Sched: mk})
		want := sim.New(scfg, small, mk()).Run()
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("cores=%d: executor corrupted after cancellation:\ngot  %+v\nwant %+v",
				cores, got.Stats, want.Stats)
		}
	}
}

// A cancelled run must never store a (partial) record in the disk
// cache: a later identical submission has to re-execute and produce the
// full result.
func TestCancelledRunNotCached(t *testing.T) {
	set := bigSet()
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	x := New(1)
	x.SetCache(cache)
	cfg := sim.DefaultConfig(2)
	cfg.Seed = 3
	key := runcache.RunKey{Config: cfg, Sched: "base", SetID: "cancel-test"}.Hash()
	ctx, cancel := context.WithCancel(context.Background())
	f := x.Submit(Spec{
		Ctx: ctx, Config: cfg, Set: set, CacheKey: key,
		Sched: func() sim.Scheduler { return sched.NewBaseline() },
	})
	time.Sleep(5 * time.Millisecond)
	cancel()
	if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if _, ok := cache.GetResult(key); ok {
		t.Fatal("cancelled run stored a cache record")
	}

	// Re-running the same key uncancelled must execute fresh and store.
	f2 := x.Submit(Spec{
		Config: cfg, Set: set, CacheKey: key,
		Sched: func() sim.Scheduler { return sched.NewBaseline() },
	})
	if _, err := f2.Wait(); err != nil {
		t.Fatal(err)
	}
	if !f2.Executed() {
		t.Fatal("re-run after cancellation not executed fresh")
	}
	if _, ok := cache.GetResult(key); !ok {
		t.Fatal("completed re-run did not store its record")
	}
}

// TestWaitTranslatesPanics pins Wait's contract for long-lived callers:
// a panicking run resolves to an error, never a re-raised panic.
func TestWaitTranslatesPanics(t *testing.T) {
	set := testSet(t, 2)
	x := New(1)
	f := x.Submit(Spec{
		Config: sim.DefaultConfig(2),
		Set:    set,
		Sched:  func() sim.Scheduler { panic("scheduler exploded") },
	})
	_, err := f.Wait()
	if err == nil || !reflect.DeepEqual(errors.Is(err, context.Canceled), false) {
		t.Fatalf("Wait error = %v, want wrapped panic", err)
	}
}

// TestBatchPanicDrainDeterministic is the regression test for the
// replicated-grid failure path the CLIs lean on (strexsim -seeds under
// -parallel): when replicates of a ReplicateSpec batch panic, the value
// Batch.Results re-raises must be the lowest-index panicking
// replicate's — regardless of worker count or completion order — and
// the batch must drain completely first, leaving the executor usable.
func TestBatchPanicDrainDeterministic(t *testing.T) {
	set := testSet(t, 8)
	const n = 6
	panicReps := map[int]bool{1: true, 3: true} // two failures, rep 1 must win
	for _, workers := range []int{1, 2, 8} {
		for iter := 0; iter < 3; iter++ {
			x := New(workers)
			rs := ReplicateSpec{Spec: Spec{
				Config: sim.DefaultConfig(2),
				Set:    set,
				Sched:  func() sim.Scheduler { return sched.NewBaseline() },
			}}
			rs.SchedFor = func(rep int) (string, func() sim.Scheduler) {
				if panicReps[rep] {
					return "", func() sim.Scheduler { panic(fmt.Sprintf("boom-rep-%d", rep)) }
				}
				return "", nil
			}
			b := x.SubmitReplicates(rs, n)
			got := func() (v interface{}) {
				defer func() { v = recover() }()
				b.Results()
				return nil
			}()
			if got != "boom-rep-1" {
				t.Fatalf("workers=%d iter=%d: recovered %v, want boom-rep-1 (deterministic lowest-index panic)",
					workers, iter, got)
			}
			if x.Completed() != n {
				t.Fatalf("workers=%d iter=%d: batch not drained: completed=%d want %d",
					workers, iter, x.Completed(), n)
			}
			// The pool must survive: a follow-up run is exact.
			cfg := sim.DefaultConfig(2)
			cfg.Seed = 17
			mk := func() sim.Scheduler { return sched.NewBaseline() }
			got2 := x.Run(Spec{Config: cfg, Set: set, Sched: mk})
			want := sim.New(cfg, set, mk()).Run()
			if !reflect.DeepEqual(got2.Stats, want.Stats) {
				t.Fatalf("workers=%d: executor unusable after batch panic", workers)
			}
		}
	}
}
