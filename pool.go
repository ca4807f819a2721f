package strex

import (
	"context"
	"fmt"
	"time"

	"strex/internal/core"
	"strex/internal/obs"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/sim"
	"strex/internal/stats"
	"strex/internal/workload"
)

// Pool is a long-lived shared run executor: one bounded worker pool and
// one warm content-addressed cache serving many independent callers.
// RunMany/RunManyDraws construct a fresh executor per call — right for
// a batch CLI, wrong for a daemon, where every tenant must share the
// same workers (so admission control actually bounds the machine) and
// the same cache (so one tenant's run warms every tenant's repeats).
// strexd runs all jobs on a single Pool.
//
// Pool methods are safe for concurrent use; results are deterministic
// per spec exactly as in RunMany (runs are pure functions of their
// inputs, the executor only adds isolation).
type Pool struct {
	x     *runner.Executor
	cache *runcache.Cache
}

// NewPool creates a pool running at most parallel simulations
// concurrently (<= 0 selects GOMAXPROCS) with an optional shared run
// cache (nil = no memoization).
func NewPool(parallel int, cache *runcache.Cache) *Pool {
	x := runner.New(parallel)
	x.SetCache(cache)
	return &Pool{x: x, cache: cache}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.x.Workers() }

// CacheStats returns a snapshot of the shared cache's traffic counters
// (zero when the pool runs uncached).
func (p *Pool) CacheStats() runcache.Stats { return p.cache.Stats() }

// CacheEnabled reports whether the pool memoizes results on disk.
func (p *Pool) CacheEnabled() bool { return p.cache.Enabled() }

// SetRunObserver registers a callback observing the wall-clock duration
// of every replicate that actually simulates on this pool (cache-served
// replicates excluded). Call before the first run; the callback must be
// concurrency-safe. See runner.Executor.SetRunObserver.
func (p *Pool) SetRunObserver(fn func(d time.Duration)) { p.x.SetRunObserver(fn) }

// runKey computes the content address of one replicate run: the full
// simulator config, the scheduler identity, and the workload's SetKey
// hash rebuilt from its identity — no set needed. "" = uncached (no
// cache attached).
func (p *Pool) runKey(cfg sim.Config, schedID string, w *Workload) string {
	if !p.cache.Enabled() || w.prov.Workload == "" {
		return ""
	}
	return runcache.RunKey{Config: cfg, Sched: schedID, SetID: w.setKey().Hash()}.Hash()
}

// RunDrawsCtx runs one (config, scheduler) cell over pre-built
// replicate draws (from ReplicateWorkloads) on the pool's shared
// executor and aggregates the results — RunDraws with three daemon-
// grade additions:
//
//   - ctx cancels the cell: queued replicates are skipped, running ones
//     stop at the engine's next poll boundary, and the call returns the
//     context's error (partial results are discarded, never cached).
//   - every replicate is content-addressed in the pool's shared cache,
//     so an identical later call — from any tenant — replays records
//     instead of simulating. The returned generation count is the
//     number of replicates that actually executed fresh: 0 means the
//     cell was fully absorbed by the cache.
//   - a panicking replicate surfaces as an error, never a panic — one
//     bad run must fail one job, not the daemon.
//
// The cache is checked first: a replicate whose record hits never loads
// its draw's set, so a cell over lazily built draws (BuildWorkload with
// a cache directory) that hits in full reads only its records. Draws on
// the pool's cache directory load through the pool's handle, so its
// CacheStats count their trace traffic. A hybrid cell first resolves
// each draw to the mechanism it picks, on this goroutine, from the
// draw's footprint record in the pool's cache; only a draw without one
// is loaded and profiled, and its record stored. Each replicate then
// runs, and is cached, as the mechanism it picked — so a warm hybrid
// cell reads only footprint and result records.
//
// onProgress, if non-nil, observes monotone completion (done, total) as
// replicates are collected in order.
func (p *Pool) RunDrawsCtx(ctx context.Context, cfg Config, draws []*Workload, kind SchedulerKind, onProgress func(done, total int)) (*ReplicatedResult, int, error) {
	return p.runDrawsCtx(ctx, cfg, draws, kind, nil, onProgress)
}

// RunDrawsTracedCtx is RunDrawsCtx with a run-timeline tracer attached
// to replicate 0's engine. The traced replicate bypasses the disk cache
// on both read and write — a cache-served result has no engine, so it
// could never fill the tracer, and a traced run's purpose is the
// execution itself. Replicates beyond the first behave exactly as in
// RunDrawsCtx. The tracer is filled by the time the call returns.
func (p *Pool) RunDrawsTracedCtx(ctx context.Context, cfg Config, draws []*Workload, kind SchedulerKind, tl *obs.Timeline, onProgress func(done, total int)) (*ReplicatedResult, int, error) {
	return p.runDrawsCtx(ctx, cfg, draws, kind, tl, onProgress)
}

func (p *Pool) runDrawsCtx(ctx context.Context, cfg Config, draws []*Workload, kind SchedulerKind, tl *obs.Timeline, onProgress func(done, total int)) (*ReplicatedResult, int, error) {
	if len(draws) == 0 {
		return nil, 0, fmt.Errorf("strex: RunDrawsCtx needs at least one workload draw")
	}
	n := len(draws)
	simCfg, err := cfg.build()
	if err != nil {
		return nil, 0, err
	}
	// Resolving on this goroutine surfaces config errors before any run
	// starts, and keeps the hybrid's profiling off the worker pool.
	choices := make([]schedChoice, n)
	labels := make([]string, n)
	for rep, w := range draws {
		w := w
		if choices[rep], err = cfg.choose(kind, func() (*core.FPTable, error) { return w.footprint(p.cache) }); err != nil {
			return nil, 0, err
		}
		labels[rep] = choices[rep].label
	}
	rs := runner.ReplicateSpec{Spec: runner.Spec{Label: labels[0], Config: simCfg, Sched: choices[0].mk, Ctx: ctx}}
	rs.SchedFor = func(rep int) (string, func() sim.Scheduler) { return choices[rep].id, choices[rep].mk }
	rs.LoadSetFor = func(rep int) func() (*workload.Set, error) {
		w := draws[rep]
		return func() (*workload.Set, error) { return w.load(p.cache) }
	}
	rs.KeyFor = func(rep int, c sim.Config) string {
		if tl != nil && rep == 0 {
			return "" // traced: must execute, not replay from cache
		}
		return p.runKey(c, choices[rep].id, draws[rep])
	}
	if tl != nil {
		tl.SetMeta(draws[0].prov.Workload, choices[0].id, simCfg.Cores)
		rs.Trace = tl // replicate 0 only (SubmitReplicates clears the rest)
	}
	return collectDraws(p.x.SubmitReplicates(rs, n), draws, labels, simCfg.Cores, onProgress)
}

// collectDraws waits for one cell's batch and aggregates it into a
// ReplicatedResult, labelling replicate rep's result labels[rep]. It
// drains the whole batch even after a failure — no replicate is left
// running — and returns the first error, so a cancelled cell surfaces
// ctx.Err instead of panicking. The generation count is the number of
// replicates that actually simulated. onProgress, if non-nil, observes
// monotone completion (done, total) as replicates are collected in
// order.
func collectDraws(b *runner.Batch, draws []*Workload, labels []string, cores int, onProgress func(done, total int)) (*ReplicatedResult, int, error) {
	n := len(draws)
	rr := &ReplicatedResult{
		Results: make([]Result, 0, n),
		Seeds:   make([]uint64, n),
	}
	impki := make([]float64, n)
	dmpki := make([]float64, n)
	tpm := make([]float64, n)
	lat := make([]float64, n)
	generations := 0
	var firstErr error
	for rep := 0; rep < n; rep++ {
		res, err := b.WaitRep(rep)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue // drain the whole batch — no replicate left running
		}
		if b.ExecutedRep(rep) {
			generations++
		}
		rr.Seeds[rep] = draws[rep].prov.Seed
		r := toResult(labels[rep], res, draws[rep].txns, cores)
		rr.Results = append(rr.Results, r)
		impki[rep], dmpki[rep], tpm[rep], lat[rep] = r.IMPKI, r.DMPKI, r.ThroughputTPM, r.MeanLatency
		if onProgress != nil {
			onProgress(rep+1, n)
		}
	}
	if firstErr != nil {
		return nil, generations, firstErr
	}
	rr.IMPKI = summaryOf(stats.Summarize(impki))
	rr.DMPKI = summaryOf(stats.Summarize(dmpki))
	rr.Throughput = summaryOf(stats.Summarize(tpm))
	rr.MeanLatency = summaryOf(stats.Summarize(lat))
	return rr, generations, nil
}
