package sched

import (
	"fmt"
	"testing"

	"strex/internal/codegen"
	"strex/internal/prefetch"
	"strex/internal/sim"
	"strex/internal/tpcc"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Cross-implementation property test: the event-driven engine (heap
// selector, hook-mask gating, hit-run fast path) must produce results
// byte-identical to the retained naive reference selector for every
// scheduler on randomized workloads. This is the enforcement of the
// equivalence arguments in docs/ENGINE.md — if a scheduler's HookMask
// overclaims, or the hit-run commutation argument breaks, the two
// engines diverge here.

// randomSet builds a small random workload: nTypes transaction types,
// each with a fixed random code layout (shared header + private
// segments, so same-type transactions overlap like real OLTP code
// paths), instantiated txns times with per-instance data accesses.
func randomSet(seed uint64, nTypes, txns int) *workload.Set {
	rng := xrand.New(seed*0x9E3779B9 + 1)
	set := &workload.Set{Name: fmt.Sprintf("rand-%d", seed)}
	type layout struct {
		header uint32
		blocks []uint32
	}
	layouts := make([]layout, nTypes)
	nextBlock := uint32(0)
	for i := range layouts {
		n := rng.IntRange(30, 90) // blocks per type: a few L1-I sets' worth
		l := layout{header: nextBlock}
		for b := 0; b < n; b++ {
			l.blocks = append(l.blocks, nextBlock)
			nextBlock++
		}
		layouts[i] = l
		set.Types = append(set.Types, fmt.Sprintf("T%d", i))
	}
	for id := 0; id < txns; id++ {
		ty := rng.Intn(nTypes)
		l := layouts[ty]
		buf := &trace.Buffer{}
		// Walk the type's code with loops (re-touches make L1 hits) and
		// occasional data accesses; identical types share block sequences.
		pos := 0
		for e := 0; e < rng.IntRange(60, 160); e++ {
			switch {
			case rng.OneIn(6): // data access
				buf.AppendData(codegen.DataBase+uint32(rng.Intn(200)), rng.OneIn(3))
			case rng.OneIn(5): // jump back (loop): revisit an earlier block
				pos = rng.Intn(pos + 1)
				fallthrough
			default:
				buf.AppendInstr(l.blocks[pos%len(l.blocks)], rng.IntRange(1, 30))
				pos++
			}
		}
		set.Txns = append(set.Txns, &workload.Txn{
			ID: id, Type: ty, Header: l.header, Trace: buf,
		})
	}
	return set
}

func threadStamps(t *testing.T, res sim.Result) []string {
	t.Helper()
	out := make([]string, len(res.Threads))
	for i, th := range res.Threads {
		if !th.Cursor.Done() {
			t.Fatalf("thread %d not finished", i)
		}
		out[i] = fmt.Sprintf("enq=%d start=%d finish=%d instrs=%d",
			th.EnqueueCycle, th.StartCycle, th.FinishCycle, th.Instrs)
	}
	return out
}

func TestEngineMatchesReferenceSelector(t *testing.T) {
	schedulers := []struct {
		name string
		mk   func(set *workload.Set, cores int) sim.Scheduler
	}{
		{"Base", func(*workload.Set, int) sim.Scheduler { return NewBaseline() }},
		{"STREX", func(*workload.Set, int) sim.Scheduler { return NewStrex() }},
		{"SLICC", func(*workload.Set, int) sim.Scheduler { return NewSlicc() }},
		{"Hybrid", newHybrid},
	}
	// Non-power-of-two core counts exercise the modulo fallbacks behind
	// the bitmask fast paths (cache sets, L2 slice interleave).
	coreCounts := []int{2, 3, 5, 8}
	for seed := uint64(0); seed < 6; seed++ {
		set := randomSet(seed, int(2+seed%3), 16)
		for _, cores := range coreCounts {
			for _, s := range schedulers {
				name := fmt.Sprintf("%s/seed=%d/cores=%d", s.name, seed, cores)
				cfg := sim.DefaultConfig(cores)
				// A small L1-I forces evictions (and STREX's victim
				// monitor) even on these short random traces.
				cfg.L1IKB = 2
				cfg.Seed = seed + 1

				fast := sim.New(cfg, set, s.mk(set, cores)).Run()
				ref := sim.New(cfg, set, s.mk(set, cores)).RunReference()

				if fast.Stats != ref.Stats {
					t.Errorf("%s: stats diverged\n fast: %+v\n  ref: %+v", name, fast.Stats, ref.Stats)
					continue
				}
				fs, rs := threadStamps(t, fast), threadStamps(t, ref)
				for i := range fs {
					if fs[i] != rs[i] {
						t.Errorf("%s: thread %d stamps diverged\n fast: %s\n  ref: %s", name, i, fs[i], rs[i])
					}
				}
			}
		}
	}
}

// The same equivalence must hold when the prefetcher is active (the
// hit-run fast path is then unlicensed: next-line inserts lines on
// every fetch, so the engines must agree through the slow path too)
// and when misses are latency-free (PIF).
func TestEngineMatchesReferenceWithPrefetchers(t *testing.T) {
	set := randomSet(7, 3, 16)
	for _, pf := range []prefetch.Kind{prefetch.NextLine, prefetch.PIF} {
		for _, cores := range []int{2, 4} {
			cfg := sim.DefaultConfig(cores)
			cfg.L1IKB = 2
			cfg.Prefetcher = pf
			fast := sim.New(cfg, set, NewBaseline()).Run()
			ref := sim.New(cfg, set, NewBaseline()).RunReference()
			if fast.Stats != ref.Stats {
				t.Errorf("prefetcher=%d cores=%d: stats diverged\n fast: %+v\n  ref: %+v",
					pf, cores, fast.Stats, ref.Stats)
			}
		}
	}
}

// TestEngineMatchesReferenceUnderPreemption pins the equivalence on
// workloads where the preemption machinery demonstrably fires: long
// random traces against a tiny L1-I drive STREX's victim monitor
// (context switches), and the real TPC-C mix drives SLICC's
// migration rule — the paths where an ordering bug in the event core
// would actually surface.
func TestEngineMatchesReferenceUnderPreemption(t *testing.T) {
	// STREX switch coverage: small cache, long traces.
	set := randomSetSized(3, 2, 24, 400)
	cfg := sim.DefaultConfig(4)
	cfg.L1IKB = 2
	cfg.Seed = 2
	fast := sim.New(cfg, set, NewStrex()).Run()
	ref := sim.New(cfg, set, NewStrex()).RunReference()
	if fast.Stats.Switches == 0 {
		t.Fatal("stress workload produced no STREX switches; coverage lost")
	}
	if fast.Stats != ref.Stats {
		t.Errorf("STREX stress: stats diverged\n fast: %+v\n  ref: %+v", fast.Stats, ref.Stats)
	}

	// SLICC migration coverage: the real TPC-C mix (segmented code
	// paths) on enough cores for segment-chasing to pay.
	w := tpcc.New(tpcc.Config{Warehouses: 1, Seed: 42})
	tset := w.Generate(30)
	for _, cores := range []int{4, 8} {
		fast := sim.New(sim.DefaultConfig(cores), tset, NewSlicc()).Run()
		ref := sim.New(sim.DefaultConfig(cores), tset, NewSlicc()).RunReference()
		if fast.Stats.Migrations == 0 {
			t.Fatalf("cores=%d: TPC-C produced no SLICC migrations; coverage lost", cores)
		}
		if fast.Stats != ref.Stats {
			t.Errorf("SLICC/tpcc/cores=%d: stats diverged\n fast: %+v\n  ref: %+v", cores, fast.Stats, ref.Stats)
		}
		fs, rs := threadStamps(t, fast), threadStamps(t, ref)
		for i := range fs {
			if fs[i] != rs[i] {
				t.Errorf("SLICC/tpcc/cores=%d: thread %d stamps diverged\n fast: %s\n  ref: %s", cores, i, fs[i], rs[i])
			}
		}
	}
}

// randomSetSized is randomSet with explicit trace-length control (the
// stress case needs traces long enough to trip STREX's minimum-progress
// guard and SLICC's miss-cluster migration rule).
func randomSetSized(seed uint64, nTypes, txns, entries int) *workload.Set {
	rng := xrand.New(seed*0x9E3779B9 + 1)
	set := &workload.Set{Name: fmt.Sprintf("rand-%d-%d", seed, entries)}
	type layout struct {
		header uint32
		blocks []uint32
	}
	layouts := make([]layout, nTypes)
	nextBlock := uint32(0)
	for i := range layouts {
		n := rng.IntRange(80, 160)
		l := layout{header: nextBlock}
		for b := 0; b < n; b++ {
			l.blocks = append(l.blocks, nextBlock)
			nextBlock++
		}
		layouts[i] = l
		set.Types = append(set.Types, fmt.Sprintf("T%d", i))
	}
	for id := 0; id < txns; id++ {
		ty := rng.Intn(nTypes)
		l := layouts[ty]
		buf := &trace.Buffer{}
		pos := 0
		for e := 0; e < entries; e++ {
			switch {
			case rng.OneIn(8):
				buf.AppendData(codegen.DataBase+uint32(rng.Intn(200)), rng.OneIn(3))
			case rng.OneIn(5):
				pos = rng.Intn(pos + 1)
				fallthrough
			default:
				buf.AppendInstr(l.blocks[pos%len(l.blocks)], rng.IntRange(1, 30))
				pos++
			}
		}
		set.Txns = append(set.Txns, &workload.Txn{ID: id, Type: ty, Header: l.header, Trace: buf})
	}
	return set
}
