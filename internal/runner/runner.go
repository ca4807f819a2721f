// Package runner is the parallel run-executor for the simulator: it fans
// independent sim.Engine runs out over a bounded pool of worker
// goroutines while preserving the exact results a serial execution would
// produce.
//
// Determinism contract. A simulation run is a pure function of
// (sim.Config, workload.Set, scheduler): the engine is single-goroutine,
// all randomness is seeded through Config.Seed, and the engine never
// mutates the workload set (see the ownership rule on workload.Set). The
// executor therefore only has to guarantee isolation — every run gets its
// own Engine and its own freshly constructed Scheduler — and ordering —
// futures are resolved by the submitter in submission order. Under those
// two rules the result of a grid is bit-for-bit identical at any worker
// count, including 1.
//
// Usage:
//
//	x := runner.New(8)
//	futs := make([]*runner.Future, 0, len(grid))
//	for _, g := range grid {
//	    g := g
//	    futs = append(futs, x.Submit(runner.Spec{
//	        Config: g.cfg, Set: g.set,
//	        Sched: func() sim.Scheduler { return sched.NewStrex() },
//	    }))
//	}
//	for _, f := range futs {
//	    res := f.Result() // submission order, identical to serial
//	}
//
// Scheduler construction runs inside the worker goroutine, so the Sched
// factory must only read shared data, never mutate it.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"strex/internal/obs"
	"strex/internal/runcache"
	"strex/internal/sim"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Spec describes one simulation run. Config.Seed must be set explicitly
// by the caller (use DeriveSeed for per-run seeds): the executor refuses
// to invent seeds because determinism requires them to be a function of
// the grid position, not of scheduling order.
type Spec struct {
	// Label is an optional tag carried through to progress reporting.
	Label string
	// Config is the full system configuration, including Seed.
	Config sim.Config
	// Set is the workload to replay. It is shared, not copied: the engine
	// treats it as read-only (workload.Set ownership rule), so many
	// concurrent runs may replay the same set. Callers that want to
	// mutate a set while runs are in flight must Submit a set.Clone().
	// Nil when LoadSet supplies the set instead.
	Set *workload.Set
	// LoadSet, when Set is nil, supplies the set only if the run must
	// execute locally: the executor calls it on the run's goroutine after
	// the CacheKey probe and any remote attempt, so a run served from the
	// disk cache never loads its set. An error fails the run's future.
	// It may be called concurrently by runs sharing one set, and must
	// return the same set each time. Such lazy specs are exempt from
	// in-process dedup, whose key is the set pointer.
	LoadSet func() (*workload.Set, error)
	// Sched constructs the run's scheduler. A fresh scheduler per run is
	// mandatory — scheduler state (teams, phase IDs, SLICC queues) is
	// per-run and must not leak across runs.
	Sched func() sim.Scheduler
	// CacheKey, when non-empty and the executor carries a run cache
	// (SetCache), memoizes this run: a stored record with this key is
	// returned without executing, and a fresh execution is stored under
	// it. The caller owns key correctness — the key must identify the
	// full (Config, scheduler, workload set) triple, typically via
	// runcache.RunKey.Hash(). Cached results carry the same Stats and
	// per-thread cycle stamps as a live run but no Txn pointers.
	CacheKey string
	// Ctx, when non-nil, cancels the run: a context cancelled before the
	// run starts skips execution entirely, and one cancelled mid-run
	// stops the engine at its next poll boundary (within a bounded number
	// of scheduling quanta — see sim.Engine.SetStop). A cancelled run's
	// future resolves with the context's error via Wait; its partial
	// result is discarded, never cached, and its engine never returns to
	// the pool. Nil means "never cancelled" (the batch-CLI behaviour).
	Ctx context.Context
	// SchedID, when non-empty, is the label-independent identity of the
	// scheduler Sched constructs ("base", "strex/w30/t10", ...). Two
	// specs with equal SchedID, Config and Set pointer must be
	// interchangeable: the executor then runs only the first and serves
	// the rest from an in-process memo, even with no disk cache — the
	// experiment figures resubmit dozens of identical (set, config,
	// scheduler) cells under different per-figure labels, and a run is a
	// pure function of that triple (the determinism contract above).
	SchedID string
	// Trace, when non-nil, attaches a run-timeline tracer to this run's
	// engine (sim.Engine.SetTimeline). A traced spec is exempt from
	// in-process dedup — a memo-served result has no engine and would
	// leave the tracer empty — and the tracer is detached before the
	// engine returns to the pool. Tracing never changes results.
	Trace *obs.Timeline
	// Arrivals, when non-nil, arms open-loop admission for this run
	// (sim.Engine.SetArrivals): one non-decreasing arrival clock per
	// transaction in set order. Arrival-bearing specs are exempt from
	// in-process dedup — the dedup key identifies the closed-loop
	// (Config, scheduler, set) triple, which no longer pins the result —
	// and always execute locally (the remote wire format carries no
	// arrival schedule). Callers wanting disk memoization must fold the
	// schedule's identity (arrival.Spec.ID) into CacheKey themselves.
	Arrivals []uint64
	// Remote, when non-nil and the executor carries a remote runner
	// (SetRemote), is the opaque wire payload describing this run to the
	// remote fleet (the coordinator's shard.WireSpec). Remote-eligible
	// runs bypass the local worker semaphore — the remote side bounds
	// its own concurrency — and fall back to local execution when the
	// remote reports ErrRemoteUnavailable. Because a run is a pure
	// function of its spec, remote and local execution are
	// interchangeable bit-for-bit; Remote only moves the work. Traced
	// specs always execute locally (the trace records this process's
	// engine).
	Remote interface{}
}

// ErrRemoteUnavailable is returned by a RemoteRunner that cannot
// currently execute anything (every worker dead or the payload not
// recognized). The executor reacts by running the spec locally — remote
// execution degrades to "slower", never to "failed run".
var ErrRemoteUnavailable = errors.New("runner: remote execution unavailable")

// RemoteRunner executes one run somewhere else. RunRemote blocks until
// the run completes (or ctx is cancelled) and returns the result in its
// serialized cache form plus whether a simulator actually executed
// (false = served from a remote cache or memo). It must be safe for
// concurrent use — the executor calls it from many run goroutines.
// Implementations signal "fall back to local" with ErrRemoteUnavailable;
// any other error fails the run's future.
type RemoteRunner interface {
	RunRemote(ctx context.Context, payload interface{}) (rec runcache.Record, executed bool, err error)
}

// dedupKey is the in-process memo key for a spec with a SchedID.
func dedupKey(spec *Spec) string {
	return fmt.Sprintf("%+v|%s|%p", spec.Config, spec.SchedID, spec.Set)
}

// Future is the pending result of a submitted run.
type Future struct {
	done     chan struct{}
	res      sim.Result
	pan      interface{} // captured panic, re-raised in Result
	err      error       // cancellation (Spec.Ctx) error
	cached   bool        // served from the disk cache, not executed
	executed bool        // actually simulated (not cached, not deduped)
}

// Result blocks until the run completes and returns its result. If the
// run panicked (a simulator invariant violation), Result re-panics with
// the same value in the caller's goroutine; a run failed by an error —
// cancellation via Spec.Ctx, or a permanent remote failure — panics
// with that error rather than returning a zero Result as if the run had
// measured all-zero stats. Callers that want the error as a value use
// Wait.
func (f *Future) Result() sim.Result {
	<-f.done
	if f.pan != nil {
		panic(f.pan)
	}
	if f.err != nil {
		panic(f.err)
	}
	return f.res
}

// Wait blocks until the run completes and returns (result, error). A
// cancelled run (Spec.Ctx) yields its context error; a panicked run
// yields the panic wrapped as an error instead of re-raising — the form
// long-lived callers (the service daemon) need, where one bad run must
// become one failed job, never a crashed process.
func (f *Future) Wait() (sim.Result, error) {
	<-f.done
	if f.pan != nil {
		return sim.Result{}, fmt.Errorf("runner: run panicked: %v", f.pan)
	}
	if f.err != nil {
		return sim.Result{}, f.err
	}
	return f.res, nil
}

// Executed reports whether the run actually simulated — false for
// cache-served, dedup-derived, cancelled and panicked runs. Valid after
// the future resolves; the service's per-job generation count sums it.
func (f *Future) Executed() bool {
	<-f.done
	return f.executed
}

// FromCache reports whether the result was served from the disk cache.
// Valid after the future resolves.
func (f *Future) FromCache() bool {
	<-f.done
	return f.cached
}

// Executor runs simulations on a bounded pool of worker goroutines.
// Submit is safe for concurrent use — every piece of executor state is
// independently synchronized (atomic counters, the inproc memo under
// inprocMu, progress under mu, the engine pool under its own lock) —
// so many coordinators (e.g. strexd's dispatchers) may share one
// executor, which is what makes its worker bound a machine-wide
// admission limit rather than a per-caller one. The zero value is not
// usable; call New.
type Executor struct {
	sem    chan struct{}   // counting semaphore bounding concurrent runs
	cache  *runcache.Cache // nil = no result memoization
	remote RemoteRunner    // nil = all runs execute locally

	submitted atomic.Int64
	completed atomic.Int64

	mu         sync.Mutex
	onProgress func(done, submitted int, label string)

	// onRun observes the wall-clock duration of every actually-executed
	// simulation (cache hits and dedup-derived runs excluded). Set once
	// before the first Submit (SetRunObserver); invoked from worker
	// goroutines, so it must be concurrency-safe — recording into an
	// obs.Hist qualifies.
	onRun func(d time.Duration)

	// inproc memoizes in-flight and completed runs by dedupKey; see
	// Spec.SchedID. Each entry retains the set pointer both to pin the
	// set (the key embeds its address — retention makes address reuse
	// impossible while the entry lives) and to double-check identity on
	// lookup. Guarded by inprocMu (Submit may run concurrently, and the
	// map is also read by derived-future goroutines).
	inprocMu sync.Mutex
	inproc   map[string]inprocEntry

	pool enginePool
}

// enginePool retains finished engines for reuse by later runs with the
// same geometry (sim.Config.Geometry — the shape that fixes every
// allocation an engine owns). Reusing an engine replaces the dominant
// allocation cost of a replicate sweep with an in-place Reset; the
// engine-level contract (a Reset engine is indistinguishable from a
// fresh one, enforced differentially by the sim and runner tests) is
// what keeps pooled results bit-identical to fresh ones. Retention is
// bounded per geometry by the worker count — more than that can never
// be in flight at once, so anything beyond it is dead weight.
type enginePool struct {
	mu   sync.Mutex
	free map[sim.Config][]*sim.Engine
}

func (p *enginePool) get(geo sim.Config) *sim.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.free[geo]
	if len(list) == 0 {
		return nil
	}
	eng := list[len(list)-1]
	p.free[geo] = list[:len(list)-1]
	return eng
}

func (p *enginePool) put(geo sim.Config, eng *sim.Engine, max int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[sim.Config][]*sim.Engine)
	}
	if len(p.free[geo]) < max {
		p.free[geo] = append(p.free[geo], eng)
	}
}

// inprocEntry is one in-process memo slot.
type inprocEntry struct {
	set *workload.Set
	fut *Future
}

// ResolveWorkers maps a user-facing parallelism knob to the effective
// worker count: values <= 0 select runtime.GOMAXPROCS(0). It is the
// single source of that rule — CLIs reporting an effective worker count
// use it rather than re-deriving the default.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// New returns an executor that runs at most workers simulations
// concurrently. workers <= 0 selects runtime.GOMAXPROCS(0) (see
// ResolveWorkers). workers == 1 reproduces serial execution exactly (and
// is how the serial/parallel equivalence tests run the "serial" side
// through the same code path).
func New(workers int) *Executor {
	return &Executor{sem: make(chan struct{}, ResolveWorkers(workers))}
}

// Workers returns the concurrency bound.
func (x *Executor) Workers() int { return cap(x.sem) }

// SetCache attaches a run-result cache consulted for every Spec that
// carries a CacheKey. Call it before the first Submit; a nil cache (the
// default) disables memoization. Workers read and write the cache
// concurrently, which runcache's atomic artifact discipline permits.
func (x *Executor) SetCache(c *runcache.Cache) { x.cache = c }

// SetRemote attaches a remote runner consulted for every Spec that
// carries a Remote payload. Call it before the first Submit; nil (the
// default) keeps every run local. The local disk cache, when attached,
// still short-circuits remote dispatch — a warm run never crosses the
// network — and remotely produced records are stored under the spec's
// CacheKey, so a sharded cold run warms the local cache exactly like a
// local one.
func (x *Executor) SetRemote(r RemoteRunner) { x.remote = r }

// SetRunObserver registers a callback invoked with the wall-clock
// duration of every actually-executed run. Call it before the first
// Submit; the callback runs on worker goroutines and must be
// concurrency-safe (the service records into a lock-free histogram).
func (x *Executor) SetRunObserver(fn func(d time.Duration)) { x.onRun = fn }

// OnProgress registers a callback invoked after every completed run with
// (completed, submitted, label). It is called from worker goroutines
// under a lock, so the callback itself needs no synchronization but must
// be fast.
func (x *Executor) OnProgress(fn func(done, submitted int, label string)) {
	x.mu.Lock()
	x.onProgress = fn
	x.mu.Unlock()
}

// Submitted returns the number of runs submitted so far.
func (x *Executor) Submitted() int { return int(x.submitted.Load()) }

// Completed returns the number of runs finished so far.
func (x *Executor) Completed() int { return int(x.completed.Load()) }

// Submit schedules one run and returns its future. The run starts as
// soon as a worker slot is free; Submit itself never blocks on the
// simulation (only, briefly, on slot bookkeeping).
func (x *Executor) Submit(spec Spec) *Future {
	if spec.Set == nil && spec.LoadSet == nil {
		panic("runner: Submit with nil workload set")
	}
	if spec.Sched == nil {
		panic("runner: Submit with nil scheduler factory")
	}
	x.submitted.Add(1)
	f := &Future{done: make(chan struct{})}

	// In-process dedup: identical (Config, scheduler identity, set)
	// triples execute once; later submissions derive their future from
	// the first. The derived run still stores under its own disk cache
	// key so a warm rerun finds every label it expects. Traced specs are
	// exempt: their whole point is the execution itself.
	if spec.SchedID != "" && spec.Set != nil && spec.Trace == nil && spec.Arrivals == nil {
		key := dedupKey(&spec)
		x.inprocMu.Lock()
		if ent, ok := x.inproc[key]; ok && ent.set == spec.Set {
			first := ent.fut
			x.inprocMu.Unlock()
			go func() {
				<-first.done
				defer func() {
					x.mu.Lock()
					done := int(x.completed.Add(1))
					if x.onProgress != nil {
						x.onProgress(done, x.Submitted(), spec.Label)
					}
					x.mu.Unlock()
					close(f.done)
				}()
				if first.pan != nil {
					f.pan = first.pan
					return
				}
				if first.err != nil {
					f.err = first.err
					return
				}
				f.res = first.res
				if spec.CacheKey != "" && x.cache.Enabled() {
					_ = x.cache.PutResult(spec.CacheKey, runcache.RecordOf(f.res))
				}
			}()
			return f
		}
		if x.inproc == nil {
			x.inproc = make(map[string]inprocEntry)
		}
		x.inproc[key] = inprocEntry{set: spec.Set, fut: f}
		x.inprocMu.Unlock()
	}
	go func() {
		// Remote-eligible runs skip the local worker semaphore: the
		// remote coordinator bounds its own per-worker concurrency, and
		// holding a local slot while blocked on an RPC would starve the
		// local pool. The slot is acquired late iff the run falls back to
		// local execution.
		remote := x.remote != nil && spec.Remote != nil && spec.Trace == nil && spec.Arrivals == nil
		acquired := false
		acquire := func() {
			x.sem <- struct{}{}
			acquired = true
		}
		if !remote {
			acquire()
		}
		defer func() {
			if acquired {
				<-x.sem
			}
			if r := recover(); r != nil {
				f.pan = r
			}
			// The increment happens under the progress lock so callbacks
			// observe strictly increasing done counts (a \r-style progress
			// line must never move backwards).
			x.mu.Lock()
			done := int(x.completed.Add(1))
			if x.onProgress != nil {
				x.onProgress(done, x.Submitted(), spec.Label)
			}
			x.mu.Unlock()
			close(f.done)
		}()
		if spec.Ctx != nil {
			if err := spec.Ctx.Err(); err != nil {
				f.err = err
				return
			}
		}
		if spec.CacheKey != "" {
			if rec, ok := x.cache.GetResult(spec.CacheKey); ok {
				f.res = rec.Result()
				f.cached = true
				return
			}
		}
		if remote {
			ctx := spec.Ctx
			if ctx == nil {
				ctx = context.Background()
			}
			rec, executed, err := x.remote.RunRemote(ctx, spec.Remote)
			switch {
			case err == nil:
				f.res = rec.Result()
				f.executed = executed
				if spec.CacheKey != "" {
					// Store the remote record locally so a warm rerun is
					// warm even with the fleet detached.
					_ = x.cache.PutResult(spec.CacheKey, rec)
				}
				return
			case errors.Is(err, ErrRemoteUnavailable):
				acquire() // fleet gone: degrade to local execution
			default:
				f.err = err
				return
			}
		}
		if spec.Set == nil {
			if spec.Set, f.err = spec.LoadSet(); f.err != nil {
				return
			}
		}
		f.res, f.err = x.execute(&spec)
		if f.err != nil {
			f.res = sim.Result{} // partial result of a cancelled run
			return
		}
		f.executed = true
		if spec.CacheKey != "" {
			// Store errors are deliberately swallowed: a full disk must
			// degrade to "slower", never to "failed run".
			_ = x.cache.PutResult(spec.CacheKey, runcache.RecordOf(f.res))
		}
	}()
	return f
}

// execute performs one simulation on a pooled engine when one with the
// right geometry is free, a fresh engine otherwise. The result is
// detached before the engine returns to the pool, so it stays valid
// after the engine's arenas are recycled. A panicking run abandons its
// engine (it never reaches the pool), so a violated invariant cannot
// contaminate later runs; a cancelled run abandons its engine too (its
// mid-run state is simply dropped) and returns the context's error.
func (x *Executor) execute(spec *Spec) (sim.Result, error) {
	geo := spec.Config.Geometry()
	eng := x.pool.get(geo)
	if eng == nil {
		eng = sim.New(spec.Config, spec.Set, spec.Sched())
	} else {
		eng.Reset(spec.Config, spec.Set, spec.Sched())
	}
	if spec.Ctx != nil {
		eng.SetStop(spec.Ctx.Done())
	}
	eng.SetTimeline(spec.Trace)
	if spec.Arrivals != nil {
		eng.SetArrivals(spec.Arrivals)
	}
	start := time.Now()
	res := eng.Run().Detach()
	elapsed := time.Since(start)
	if eng.Stopped() {
		return sim.Result{}, spec.Ctx.Err()
	}
	if x.onRun != nil {
		x.onRun(elapsed)
	}
	eng.SetStop(nil)
	eng.SetTimeline(nil)
	eng.SetArrivals(nil)
	x.pool.put(geo, eng, cap(x.sem))
	return res, nil
}

// Run is the synchronous convenience form: Submit + Result.
func (x *Executor) Run(spec Spec) sim.Result {
	return x.Submit(spec).Result()
}

// Map submits every spec and waits for all of them, returning results in
// spec order — the drop-in replacement for a serial loop over
// Engine.Run.
func (x *Executor) Map(specs []Spec) []sim.Result {
	futs := make([]*Future, len(specs))
	for i, s := range specs {
		futs[i] = x.Submit(s)
	}
	out := make([]sim.Result, len(specs))
	for i, f := range futs {
		out[i] = f.Result()
	}
	return out
}

// DeriveSeed maps a master seed and a run index to a well-distributed
// per-run seed. It is a pure function, so a grid seeded with
// DeriveSeed(master, i) is reproducible regardless of execution order or
// worker count. Index 0 maps to a non-trivial value, and no index maps
// to 0 (which sim/cache treat as "use default").
func DeriveSeed(master uint64, index int) uint64 {
	s := xrand.Hash64(master ^ xrand.Hash64(uint64(index)+1))
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return s
}

// ReplicateSeed is the replication convention shared by the experiment
// suite, the facade and the CLIs: replicate 0 keeps the base seed
// verbatim (so a single-seed run IS replicate 0, byte for byte — cache
// keys included), and replicate rep > 0 draws DeriveSeed(base, rep).
// The same rule seeds both workload generation (a fresh trace draw per
// replicate) and the simulator config.
func ReplicateSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	return DeriveSeed(base, rep)
}

// ReplicateSpec describes a batch of N seed-replicates of one run: the
// replicate-0 spec plus optional per-replicate overrides. Replicate 0
// always executes Spec verbatim; replicate rep > 0 gets
// Config.Seed = ReplicateSeed(Spec.Config.Seed, rep).
type ReplicateSpec struct {
	Spec
	// SetFor, when non-nil, supplies replicate rep's workload set — a
	// fresh trace draw per seed, which is what makes the replication
	// statistically meaningful (the config seed alone only perturbs
	// tie-breaking). It is called on the submitting goroutine, in
	// replicate order, before the replicate is submitted; a nil return
	// keeps Spec.Set.
	SetFor func(rep int) *workload.Set
	// LoadSetFor, when non-nil, supplies replicate rep's lazy set loader
	// (see Spec.LoadSet) in place of a set, so a replicate served from
	// the disk cache never loads its draw. It is called like SetFor; a
	// nil return keeps the replicate's set.
	LoadSetFor func(rep int) func() (*workload.Set, error)
	// SchedFor, when non-nil, supplies replicate rep's scheduler
	// identity and factory (Spec.SchedID and Spec.Sched). A selection
	// resolved per draw needs it: the hybrid profiles each replicate's
	// own set and may pick a different mechanism for each, and every
	// replicate must run, dedup and key under the mechanism it picked.
	// A nil factory keeps Spec's; fixed schedulers leave this nil.
	SchedFor func(rep int) (id string, mk func() sim.Scheduler)
	// KeyFor, when non-nil, supplies replicate rep's run-cache key given
	// its final config (whose Seed differs per replicate, so every
	// replicate is individually cache-addressable). When nil, replicate
	// 0 keeps Spec.CacheKey and derived replicates run uncached — a
	// shared key would alias distinct runs.
	KeyFor func(rep int, cfg sim.Config) string
	// RemoteFor, when non-nil, supplies replicate rep's remote wire
	// payload given its final config and cache key (nil return = that
	// replicate executes locally). When nil, replicate 0 keeps
	// Spec.Remote and derived replicates run locally — replicates
	// differ in seed, set and key, so sharing one payload would hand
	// every replicate the same remote run.
	RemoteFor func(rep int, cfg sim.Config, cacheKey string) interface{}
}

// Batch is the pending result of a replicated submission: one future
// per seed-replicate, in replicate order (index 0 = the verbatim-seed
// run).
type Batch struct {
	futs []*Future
}

// Len returns the replicate count.
func (b *Batch) Len() int { return len(b.futs) }

// Rep blocks until replicate i completes and returns its result,
// re-panicking if that replicate panicked.
func (b *Batch) Rep(i int) sim.Result { return b.futs[i].Result() }

// WaitRep blocks until replicate i completes and returns (result,
// error) — the non-panicking form long-lived callers use (see
// Future.Wait).
func (b *Batch) WaitRep(i int) (sim.Result, error) { return b.futs[i].Wait() }

// ExecutedRep reports whether replicate i actually simulated (false
// for cache-served, dedup-derived, cancelled and panicked replicates).
// Blocks until the replicate resolves.
func (b *Batch) ExecutedRep(i int) bool { return b.futs[i].Executed() }

// Results waits for every replicate and returns their results in
// replicate order. If any replicate panicked, Results waits for the
// whole batch to drain first — no replicate is left running — and then
// re-panics with the first replicate's panic value: one failed
// replicate fails the batch, it never yields a partial aggregate.
func (b *Batch) Results() []sim.Result {
	for _, f := range b.futs {
		<-f.done
	}
	out := make([]sim.Result, len(b.futs))
	for i, f := range b.futs {
		out[i] = f.Result()
	}
	return out
}

// SubmitReplicates submits n seed-replicates of rs and returns the
// batch. n <= 1 degenerates to a single verbatim submission, so callers
// thread a user-facing -seeds knob through without branching. Like
// Submit, it is safe for concurrent use. Spec.Trace, when set, applies
// to replicate 0 only — a tracer records one engine's run; sharing it
// across concurrent replicates would interleave their spans.
func (x *Executor) SubmitReplicates(rs ReplicateSpec, n int) *Batch {
	if n < 1 {
		n = 1
	}
	b := &Batch{futs: make([]*Future, n)}
	for rep := 0; rep < n; rep++ {
		spec := rs.Spec
		spec.Config.Seed = ReplicateSeed(rs.Spec.Config.Seed, rep)
		if rep > 0 {
			spec.Trace = nil
		}
		if rs.SetFor != nil {
			if set := rs.SetFor(rep); set != nil {
				spec.Set = set
			}
		}
		if rs.LoadSetFor != nil {
			if load := rs.LoadSetFor(rep); load != nil {
				spec.Set, spec.LoadSet = nil, load
			}
		}
		if rs.SchedFor != nil {
			if id, mk := rs.SchedFor(rep); mk != nil {
				spec.SchedID, spec.Sched = id, mk
			}
		}
		if rs.KeyFor != nil {
			spec.CacheKey = rs.KeyFor(rep, spec.Config)
		} else if rep > 0 {
			spec.CacheKey = ""
		}
		if rs.RemoteFor != nil {
			spec.Remote = rs.RemoteFor(rep, spec.Config, spec.CacheKey)
		} else if rep > 0 {
			spec.Remote = nil
		}
		b.futs[rep] = x.Submit(spec)
	}
	return b
}
