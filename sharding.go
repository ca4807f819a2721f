package strex

// sharding.go is the facade over the coordinator/worker execution mode
// (internal/shard): ConnectFleet dials a set of `-worker` processes,
// and the *Sharded grid runners fan their cells out to that fleet while
// returning results byte-identical to the in-process ones — runs are
// pure functions of their specs, so sharding only moves the work. Runs
// the fleet cannot serve (a workload the facade cannot describe by
// generation inputs, or a dead fleet) silently execute locally. See
// docs/SHARDING.md.

import (
	"context"
	"fmt"
	"log/slog"

	"strex/internal/bench"
	"strex/internal/core"
	"strex/internal/runner"
	"strex/internal/shard"
	"strex/internal/sim"
	"strex/internal/workload"
)

// Fleet is a connected sharding worker fleet. The zero of operation:
// a nil *Fleet is valid everywhere and means "run in process".
type Fleet struct {
	coord *shard.Coordinator
}

// FleetWorkerMetrics is one worker's dispatch accounting (re-exported
// so facade callers need not import the internal package).
type FleetWorkerMetrics = shard.WorkerMetrics

// ConnectFleet dials the worker base URLs ("host:port" or full URLs)
// and returns a fleet handle. Unreachable workers are skipped; it fails
// only when none respond. Close the fleet when the grids are done.
func ConnectFleet(urls []string, log *slog.Logger) (*Fleet, error) {
	coord, err := shard.New(urls, shard.Options{Log: log})
	if err != nil {
		return nil, err
	}
	return &Fleet{coord: coord}, nil
}

// Close stops dispatch and releases the fleet's connections. Runs still
// pending resolve locally.
func (f *Fleet) Close() {
	if f != nil && f.coord != nil {
		f.coord.Close()
	}
}

// Metrics snapshots per-worker dispatch counters.
func (f *Fleet) Metrics() []FleetWorkerMetrics {
	if f == nil || f.coord == nil {
		return nil
	}
	return f.coord.Metrics()
}

// LocalFallbacks counts runs the fleet handed back to local execution.
func (f *Fleet) LocalFallbacks() int64 {
	if f == nil || f.coord == nil {
		return 0
	}
	return f.coord.LocalFallbacks()
}

// AliveWorkers reports how many workers are currently serving.
func (f *Fleet) AliveWorkers() int {
	if f == nil || f.coord == nil {
		return 0
	}
	return f.coord.AliveWorkers()
}

// remote exposes the fleet as the executor's RemoteRunner (nil-safe).
func (f *Fleet) remote() runner.RemoteRunner {
	if f == nil || f.coord == nil {
		return nil
	}
	return f.coord
}

// GridOptions bundles the execution environment of a grid run.
type GridOptions struct {
	// Parallel bounds concurrent local simulations (<= 0: GOMAXPROCS).
	// Remote-dispatched runs do not consume local slots.
	Parallel int
	// Ctx, when non-nil, cancels the grid (queued runs are skipped,
	// running ones stop at the engine's next poll boundary).
	Ctx context.Context
	// Fleet, when non-nil, fans eligible runs out to workers.
	Fleet *Fleet
	// OnProgress, if non-nil, observes completion across the grid.
	OnProgress func(done, total int)
}

// wireRef describes this workload by its generation inputs, or reports
// it unshippable: an unregistered or alias-named provenance (trace-file
// loads), or a Synth set whose structural parameters this process never
// had (only their canonical string survives in provenance).
func (w *Workload) wireRef() (shard.SetRef, bool) {
	if w.prov.Workload == "" {
		return shard.SetRef{}, false
	}
	info, ok := bench.Lookup(w.prov.Workload)
	if !ok || info.Name != w.prov.Workload {
		return shard.SetRef{}, false
	}
	if w.syn == nil && w.prov.Extra != "" {
		return shard.SetRef{}, false
	}
	return shard.SetRef{
		Workload: w.prov.Workload,
		Seed:     w.prov.Seed,
		Scale:    w.prov.Scale,
		Txns:     w.txns,
		TypeID:   w.prov.TypeID,
		Synth:    w.syn,
	}, true
}

// RunManySharded is RunMany with a cancellation context and an optional
// worker fleet. With opt.Fleet nil and opt.Ctx nil it is exactly
// RunMany (which delegates here).
func RunManySharded(w *Workload, specs []RunSpec, opt GridOptions) ([]Result, error) {
	if w == nil || w.txns == 0 {
		return nil, fmt.Errorf("strex: RunMany needs a non-empty workload")
	}
	set, err := w.load(nil)
	if err != nil {
		return nil, err
	}
	ref, shippable := w.wireRef()
	type run struct {
		spec runner.Spec
		name string
	}
	runs := make([]run, len(specs))
	profile := func() (*core.FPTable, error) { return w.footprint(nil) }
	for i, rs := range specs {
		simCfg, err := rs.Config.build()
		if err != nil {
			return nil, err
		}
		// Selections are resolved eagerly on this goroutine: it surfaces
		// config errors before any run starts, and the hybrid's profiling
		// pass stays off the worker pool. A hybrid run is submitted as the
		// mechanism it picks, so it shares that mechanism's run.
		ch, err := rs.Config.choose(rs.Sched, profile)
		if err != nil {
			return nil, err
		}
		spec := runner.Spec{
			Label:   ch.label,
			Config:  simCfg,
			Set:     set,
			Sched:   ch.mk,
			SchedID: ch.id,
			Ctx:     opt.Ctx,
		}
		if shippable && opt.Fleet.remote() != nil {
			spec.Remote = &shard.WireSpec{
				Label:   spec.Label,
				Config:  simCfg,
				SchedID: spec.SchedID,
				Set:     ref,
			}
		}
		runs[i] = run{spec: spec, name: ch.label}
	}
	x := runner.New(opt.Parallel)
	x.SetRemote(opt.Fleet.remote())
	if opt.OnProgress != nil {
		onProgress := opt.OnProgress
		x.OnProgress(func(done, submitted int, label string) {
			onProgress(done, len(specs))
		})
	}
	futs := make([]*runner.Future, len(runs))
	for i, r := range runs {
		futs[i] = x.Submit(r.spec)
	}
	out := make([]Result, len(runs))
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			return nil, err
		}
		out[i] = toResult(runs[i].name, res, w.txns, runs[i].spec.Config.Cores)
	}
	return out, nil
}

// RunManyDrawsSharded is RunManyDraws with a cancellation context and
// an optional worker fleet. With opt.Fleet nil and opt.Ctx nil it is
// exactly RunManyDraws (which delegates here).
func RunManyDrawsSharded(draws []*Workload, specs []RunSpec, opt GridOptions) ([]*ReplicatedResult, error) {
	if len(draws) == 0 {
		return nil, fmt.Errorf("strex: RunManyDraws needs at least one workload draw")
	}
	n := len(draws)
	refs := make([]shard.SetRef, n)
	shippable := make([]bool, n)
	sets := make([]*workload.Set, n)
	for rep, w := range draws {
		refs[rep], shippable[rep] = w.wireRef()
		var err error
		if sets[rep], err = w.load(nil); err != nil {
			return nil, err
		}
	}
	x := runner.New(opt.Parallel)
	x.SetRemote(opt.Fleet.remote())
	total := n * len(specs)
	if opt.OnProgress != nil {
		onProgress := opt.OnProgress
		x.OnProgress(func(done, submitted int, label string) {
			onProgress(done, total)
		})
	}
	type cell struct {
		cores  int
		labels []string
		batch  *runner.Batch
	}
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		simCfg, err := spec.Config.build()
		if err != nil {
			return nil, err
		}
		// Selections are resolved on the caller's goroutine (like
		// RunMany's): only simulations fan out. The hybrid resolves per
		// draw, since each draw is profiled on its own.
		choices := make([]schedChoice, n)
		labels := make([]string, n)
		for rep, w := range draws {
			w := w
			if choices[rep], err = spec.Config.choose(spec.Sched, func() (*core.FPTable, error) { return w.footprint(nil) }); err != nil {
				return nil, err
			}
			labels[rep] = choices[rep].label
		}
		rs := runner.ReplicateSpec{Spec: runner.Spec{
			Label:  labels[0],
			Config: simCfg,
			Set:    sets[0],
			Sched:  choices[0].mk,
			Ctx:    opt.Ctx,
		}}
		rs.SetFor = func(rep int) *workload.Set { return sets[rep] }
		rs.SchedFor = func(rep int) (string, func() sim.Scheduler) { return choices[rep].id, choices[rep].mk }
		if opt.Fleet.remote() != nil {
			label := labels[0]
			rs.RemoteFor = func(rep int, cfg sim.Config, cacheKey string) interface{} {
				if !shippable[rep] {
					return nil
				}
				return &shard.WireSpec{
					Label:    label,
					Config:   cfg,
					SchedID:  choices[rep].id,
					Set:      refs[rep],
					CacheKey: cacheKey,
				}
			}
		}
		cells[i] = cell{cores: simCfg.Cores, labels: labels, batch: x.SubmitReplicates(rs, n)}
	}
	out := make([]*ReplicatedResult, len(cells))
	for i, c := range cells {
		rr, _, err := collectDraws(c.batch, draws, c.labels, c.cores, nil)
		if err != nil {
			return nil, err
		}
		out[i] = rr
	}
	return out, nil
}
