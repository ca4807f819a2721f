// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). Each driver returns a metrics.Table whose rows
// mirror the series the paper plots; cmd/experiments renders them and
// EXPERIMENTS.md records paper-vs-measured values.
//
// Scale note: the paper replays 1.2B-instruction samples per
// configuration on a cycle-level simulator. The default Options replay
// tens of millions of instructions per configuration so the entire grid
// (hundreds of runs) finishes in minutes; Options.Txns scales runs up
// for higher-fidelity numbers. Footprints, cache geometry and the
// schedulers are identical at every scale — only the sample length
// changes.
//
// Execution model: every driver is a coordinator that first generates
// (or looks up) its workload sets on the calling goroutine, then submits
// all independent simulator runs to a runner.Executor and collects the
// futures in submission order. Because each run is deterministic and
// isolated (fresh Engine + fresh Scheduler per run; sets are read-only —
// see workload.Set's ownership rule), the rendered tables are identical
// at every Options.Parallel setting, including 1.
//
// Persistence: with Options.Cache set, every workload set the suite
// generates and every run it executes is memoized in the
// content-addressed store (internal/runcache). Set content is a pure
// function of (workload, seed, scale, txns) — each set is generated by
// a *fresh* registry generator, never by continuing a shared generator's
// RNG stream — so cache keys are computable before generation and a
// warm rerun performs zero workload generations (bench.Generations
// observes this) while rendering byte-identical tables.
package experiments

import (
	"context"
	"fmt"

	"strex/internal/bench"
	"strex/internal/metrics"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/shard"
	"strex/internal/sim"
	"strex/internal/synth"
	"strex/internal/workload"
)

// Options parameterizes a Suite.
type Options struct {
	Txns     int    // transactions per throughput/MPKI run (default 160)
	Seed     uint64 // master seed
	Cores    []int  // core-count sweep (default 2,4,8,16)
	Parallel int    // concurrent simulator runs (default GOMAXPROCS; 1 = serial)
	// Seeds is the replicate count per experiment cell (default 1, the
	// classic single-seed suite). With Seeds = N > 1 every fig5-fig9,
	// sweep and smoke cell runs N times: replicate 0 at the verbatim
	// master seed — its rows and cache keys are byte-identical to a
	// Seeds=1 run — and replicates 1..N-1 at runner.ReplicateSeed-derived
	// workload and config seeds (fresh trace draws, not just fresh
	// tie-breaks). Each driver then emits an extra aggregate table of
	// mean ± 95% CI cells (see DrainAggregates), and recorded cells
	// carry per-replicate arrays plus summary blocks.
	Seeds int
	// Cache persists generated sets and run results across invocations
	// (nil = regenerate and re-simulate everything, the pre-cache
	// behaviour). Caching never changes any table: it only changes
	// whether the numbers are recomputed or recalled. Replicates are
	// individually addressable (their seeds are part of every key), so
	// a warm -seeds N rerun regenerates and re-simulates nothing.
	Cache *runcache.Cache
	// Remote, when non-nil, fans eligible runs out to a worker fleet
	// (typically a shard.Coordinator). Eligibility is per spec: the
	// suite attaches a wire payload to every run whose workload it can
	// describe by generation inputs and whose scheduler identity is on
	// the wire vocabulary; everything else — and everything the fleet
	// cannot serve — executes locally. Because runs are pure functions
	// of their specs, Remote never changes any table, only where the
	// simulating happens.
	Remote runner.RemoteRunner
	// Ctx, when non-nil, cancels the suite's runs (the CLIs pass their
	// signal context so an interrupted sweep drains workers cleanly).
	Ctx context.Context
}

// DefaultOptions returns the scale used by cmd/experiments.
func DefaultOptions() Options {
	return Options{Txns: 160, Seed: 42, Cores: []int{2, 4, 8, 16}, Seeds: 1}
}

func (o *Options) fill() {
	if o.Txns <= 0 {
		o.Txns = 160
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{2, 4, 8, 16}
	}
	if o.Seeds <= 0 {
		o.Seeds = 1
	}
	// Parallel <= 0 is resolved by runner.New to GOMAXPROCS.
}

// Suite owns the workload sets its figures share (exactly one trace
// sample per workload and size, as in the paper's one-QTrace-sample
// methodology) and the executor that fans their runs out.
//
// A Suite is a single-goroutine coordinator: drivers obtain workloads
// and submit runs from the calling goroutine only. The lazily filled
// set maps are therefore unsynchronized by design; the only concurrency
// is inside the executor, whose workers touch nothing but their own
// run's spec (and the run cache, which is concurrency-safe).
type Suite struct {
	opts Options
	exec *runner.Executor

	sets     map[string]*workload.Set
	setIDs   map[*workload.Set]string       // content address of each known set
	setSeeds map[*workload.Set]uint64       // generation seed of each known set
	setRefs  map[*workload.Set]shard.SetRef // wire description of each shippable set

	records []metrics.RunRecord
	aggs    []*metrics.Table // aggregate tables pending DrainAggregates
}

// NewSuite creates a suite.
func NewSuite(opts Options) *Suite {
	opts.fill()
	exec := runner.New(opts.Parallel)
	exec.SetCache(opts.Cache)
	exec.SetRemote(opts.Remote)
	return &Suite{
		opts:     opts,
		exec:     exec,
		sets:     make(map[string]*workload.Set),
		setIDs:   make(map[*workload.Set]string),
		setSeeds: make(map[*workload.Set]uint64),
		setRefs:  make(map[*workload.Set]shard.SetRef),
	}
}

// Runner exposes the suite's executor (cmd/experiments hooks progress
// reporting here).
func (s *Suite) Runner() *runner.Executor { return s.exec }

// Options returns the suite's effective options.
func (s *Suite) Options() Options { return s.opts }

// Records returns one machine-readable summary per recorded run, in
// driver order (the -json export; see metrics.RunRecord).
func (s *Suite) Records() []metrics.RunRecord {
	return append([]metrics.RunRecord(nil), s.records...)
}

func (s *Suite) record(rec metrics.RunRecord) {
	s.records = append(s.records, rec)
}

// WorkloadNames lists the paper's Table 1 workloads in order (the
// figure drivers reproduce the paper on exactly these; the registry's
// full list drives WorkloadSmoke).
func WorkloadNames() []string {
	return []string{"TPC-C-1", "TPC-C-10", "TPC-E", "MapReduce"}
}

// benchScale returns the suite's Scale override for a workload (0 =
// registry default).
func benchScale(name string) int {
	if name == "MapReduce" {
		return 400 // shorter tasks than the CLI default, for run time
	}
	return 0
}

// setKey is the content address of a suite-generated set: a pure
// function of the generation inputs (see runcache.SetKey).
func (s *Suite) setKey(name string, typeID, txns int) runcache.SetKey {
	return s.setKeyAt(name, s.opts.Seed, typeID, txns)
}

// setKeyAt is setKey at an explicit generation seed (replicates draw
// fresh traces, so their sets live under their own addresses).
func (s *Suite) setKeyAt(name string, seed uint64, typeID, txns int) runcache.SetKey {
	info, ok := bench.Lookup(name)
	if !ok {
		panic("experiments: unknown workload " + name)
	}
	return runcache.SetKey{
		Workload: info.Name, // canonical, so aliases share artifacts
		Seed:     seed,
		Scale:    benchScale(name),
		Txns:     txns,
		TypeID:   typeID,
	}
}

// materialize returns the set for key, consulting (in order) the suite's
// in-memory map, the run cache, and finally the generator gen. The
// generated or loaded set is validated, remembered under its content
// address, and persisted. sp carries the synth parameters when the set
// is synthetic (nil otherwise) — together with the key it forms the
// set's wire description, which is what lets remote workers regenerate
// it from generation inputs alone.
func (s *Suite) materialize(memoKey string, key runcache.SetKey, sp *synth.Params, gen func() *workload.Set) *workload.Set {
	if set, ok := s.sets[memoKey]; ok {
		return set
	}
	set, ok := s.opts.Cache.GetSet(key)
	if !ok {
		set = gen()
		if err := set.Validate(); err != nil {
			panic("experiments: " + err.Error())
		}
		// Store failures degrade to "regenerate next time", never to a
		// failed run — same policy as the runner's result stores.
		_ = s.opts.Cache.PutSet(key, set)
	}
	s.sets[memoKey] = set
	s.setIDs[set] = key.Hash()
	s.setSeeds[set] = key.Seed
	s.setRefs[set] = shard.SetRef{
		Workload: key.Workload,
		Seed:     key.Seed,
		Scale:    key.Scale,
		Txns:     key.Txns,
		TypeID:   key.TypeID,
		Synth:    sp,
	}
	return set
}

// Set returns (generating on first use) the mixed workload set by name
// at the default size.
func (s *Suite) Set(name string) *workload.Set {
	return s.SetSized(name, s.opts.Txns)
}

// SetSized returns a mixed workload set with at least txns transactions
// for any registered workload, generated by a fresh registry generator
// (content depends only on name, seed, scale and txns — not on what
// other figures generated first). Throughput cells need the transaction
// count to scale with cores×teamSize — the paper's system sees a
// continuous arrival stream, so no scheduler ever idles for lack of
// transactions; with a finite batch, a cell sized below ~2 teams per
// core would starve STREX's cores and bias the comparison.
func (s *Suite) SetSized(name string, txns int) *workload.Set {
	return s.setSizedAt(name, txns, s.opts.Seed)
}

// setSizedAt is SetSized at an explicit generation seed.
func (s *Suite) setSizedAt(name string, txns int, seed uint64) *workload.Set {
	key := s.setKeyAt(name, seed, -1, txns)
	return s.materialize(fmt.Sprintf("%s/%d/s%d", name, txns, seed), key, nil, func() *workload.Set {
		g, err := bench.Build(name, bench.Options{Seed: seed, Scale: benchScale(name)})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		return g.Generate(txns)
	})
}

// seedFor maps a replicate index to its master-derived seed (verbatim
// at 0, derived beyond — the runner.ReplicateSeed convention). It
// drives every replicate's simulator config, and the workload
// generation of cells that replicate the master seed directly; the
// sweep replicates per-point base seeds instead, which is why
// submitReps records each set's actual generation seed rather than
// assuming this one.
func (s *Suite) seedFor(rep int) uint64 {
	return runner.ReplicateSeed(s.opts.Seed, rep)
}

// setsSized returns one set per replicate for a registered workload:
// index 0 is the classic SetSized set, later indices are fresh trace
// draws at derived seeds. At Seeds=1 it is exactly [SetSized(...)].
func (s *Suite) setsSized(name string, txns int) []*workload.Set {
	out := make([]*workload.Set, s.opts.Seeds)
	for rep := range out {
		out[rep] = s.setSizedAt(name, txns, s.seedFor(rep))
	}
	return out
}

// TypedSet returns n transactions all of the named type (the Figure
// 2/4 and Table 3 sampling mode), from a fresh generator per call site
// so the content is cacheable like any mixed set.
func (s *Suite) TypedSet(name, typeName string, n int) *workload.Set {
	typeID, err := bench.TypeID(name, typeName)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	key := s.setKey(name, typeID, n)
	return s.materialize(fmt.Sprintf("%s/type=%d/%d", name, typeID, n), key, nil, func() *workload.Set {
		g, err := bench.Build(name, bench.Options{Seed: s.opts.Seed, Scale: benchScale(name)})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		return g.GenerateTyped(typeID, n)
	})
}

// synthSet returns a synthetic set for the footprint sweep, cached like
// every other set (the synth parameters canonicalized into the key).
func (s *Suite) synthSet(seed uint64, p synth.Params, txns int) *workload.Set {
	key := runcache.SetKey{
		Workload: "Synth",
		Seed:     seed,
		Txns:     txns,
		TypeID:   -1,
		Extra:    fmt.Sprintf("%#v", p),
	}
	memoKey := fmt.Sprintf("Synth/%d/%s/%d", seed, key.Extra, txns)
	sp := p
	return s.materialize(memoKey, key, &sp, func() *workload.Set {
		g, err := bench.Build("Synth", bench.Options{Seed: seed, Synth: p})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		return g.Generate(txns)
	})
}

// synthSets returns one synthetic set per replicate, seeded by the
// ReplicateSeed convention off the sweep point's own seed.
func (s *Suite) synthSets(seed uint64, p synth.Params, txns int) []*workload.Set {
	out := make([]*workload.Set, s.opts.Seeds)
	for rep := range out {
		out[rep] = s.synthSet(runner.ReplicateSeed(seed, rep), p, txns)
	}
	return out
}

// derivedSet registers a set constructed in-process from a parent set
// (replication, profiling subsets) under a content address derived from
// the parent's, so runs on it remain cacheable. transform names the
// derivation and must determine the content given the parent.
func (s *Suite) derivedSet(derived, parent *workload.Set, transform string) *workload.Set {
	if pid, ok := s.setIDs[parent]; ok {
		s.setIDs[derived] = pid + "+" + transform
	}
	// The replication transform is on the wire vocabulary (SetRef
	// carries it structurally, workers re-derive through the same
	// workload.ReplicateIdentical), so runs on replicated sets stay
	// remote-eligible; other derivations exist only in this process and
	// their runs execute locally.
	var n int
	if ref, ok := s.setRefs[parent]; ok {
		if c, err := fmt.Sscanf(transform, "replicate%d", &n); err == nil && c == 1 && n > 1 {
			ref.Replicate = n
			s.setRefs[derived] = ref
		}
	}
	return derived
}

// cellTxns sizes a throughput/MPKI cell: at least two full teams per
// core so every core stays busy for most of the run.
func (s *Suite) cellTxns(cores, teamSize int) int {
	need := 2 * cores * teamSize
	if need < s.opts.Txns {
		return s.opts.Txns
	}
	return need
}

// bigCores returns the largest configured core count (Figures 7/8 run
// "on 16 cores" at paper scale; tests shrink it).
func (s *Suite) bigCores() int {
	max := s.opts.Cores[0]
	for _, c := range s.opts.Cores {
		if c > max {
			max = c
		}
	}
	return max
}

// runOn executes set under sched on the given core count with an
// optionally customized config and returns the result. It routes the run
// through the executor (blocking until done) so even one-off runs share
// the worker pool and its accounting. Direct runOn runs are not
// memoized (the scheduler instance is opaque here).
func (s *Suite) runOn(set *workload.Set, cores int, sched sim.Scheduler, mutate func(*sim.Config)) sim.Result {
	spec := s.spec("", "", set, cores, func() sim.Scheduler { return sched }, mutate)
	spec.CacheKey = ""
	return s.exec.Run(spec)
}

// runAsync submits one run and returns its future. The scheduler factory
// runs in the worker goroutine and must construct a fresh scheduler; the
// config is finalized here, on the coordinator. label doubles as the
// scheduler/cell identity in the run's cache key, so it must uniquely
// describe the cell — every driver embeds figure, workload, core count
// and scheduler selection in it.
func (s *Suite) runAsync(label, schedID string, set *workload.Set, cores int, mk func() sim.Scheduler, mutate func(*sim.Config)) *runner.Future {
	return s.exec.Submit(s.spec(label, schedID, set, cores, mk, mutate))
}

func (s *Suite) spec(label, schedID string, set *workload.Set, cores int, mk func() sim.Scheduler, mutate func(*sim.Config)) runner.Spec {
	cfg := sim.DefaultConfig(cores)
	cfg.Seed = s.opts.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	spec := runner.Spec{Label: label, Config: cfg, Set: set, Sched: mk, SchedID: schedID, Ctx: s.opts.Ctx}
	spec.CacheKey = s.cacheKey(label, cfg, set)
	spec.Remote = s.remotePayload(label, cfg, schedID, set, spec.CacheKey)
	return spec
}

// remotePayload builds the wire description of a run, or nil when the
// run is not remote-eligible: no fleet attached, a set this process
// cannot describe by generation inputs, or a scheduler identity outside
// the wire vocabulary.
func (s *Suite) remotePayload(label string, cfg sim.Config, schedID string, set *workload.Set, cacheKey string) interface{} {
	if s.opts.Remote == nil || schedID == "" {
		return nil
	}
	ref, ok := s.setRefs[set]
	if !ok || shard.ParseSchedID(schedID) != nil {
		return nil
	}
	return &shard.WireSpec{
		Label:    label,
		Config:   cfg,
		SchedID:  schedID,
		Set:      ref,
		CacheKey: cacheKey,
	}
}

// cacheKey is the run-cache address of one (cell label, config, set)
// triple — the config's Seed makes every replicate of a cell
// individually addressable ("" = uncached: anonymous label, unknown
// set, or no cache attached).
func (s *Suite) cacheKey(label string, cfg sim.Config, set *workload.Set) string {
	if setID, ok := s.setIDs[set]; ok && label != "" && s.opts.Cache.Enabled() {
		return runcache.RunKey{Config: cfg, Sched: label, SetID: setID}.Hash()
	}
	return ""
}

// Reps is one replicated experiment cell: the replicate batch plus the
// per-replicate sets (whose transaction counts size throughput
// metrics). At Seeds=1 it wraps exactly the single classic run.
type Reps struct {
	batch *runner.Batch
	sets  []*workload.Set
	seeds []uint64
}

// Seed0 blocks until replicate 0 — the verbatim-seed run every
// existing table row is built from — completes and returns its result.
func (r *Reps) Seed0() sim.Result { return r.batch.Rep(0) }

// Results waits for and returns every replicate in replicate order.
func (r *Reps) Results() []sim.Result { return r.batch.Results() }

// Txns returns replicate rep's transaction count.
func (r *Reps) Txns(rep int) int { return len(r.sets[rep].Txns) }

// Seeds returns the per-replicate master seeds.
func (r *Reps) Seeds() []uint64 { return r.seeds }

// runReps submits one run per replicate set for a cell (sets comes
// from setsSized/synthSets, one fresh trace draw per replicate) and
// returns the batch handle. Replicate 0 is byte-identical to a plain
// runAsync submission — same config, same set, same cache key — so
// Seeds=1 output cannot drift.
func (s *Suite) runReps(label, schedID string, sets []*workload.Set, cores int, mk func() sim.Scheduler, mutate func(*sim.Config)) *Reps {
	return s.submitReps(label, schedID, sets, cores, nil, mk, mutate)
}

// submitReps is runReps with an optional per-replicate scheduler
// identity and factory (the hybrid resolves per replicate set);
// schedFor nil shares schedID and mk across replicates.
func (s *Suite) submitReps(label, schedID string, sets []*workload.Set, cores int, schedFor func(rep int) (string, func() sim.Scheduler), mk func() sim.Scheduler, mutate func(*sim.Config)) *Reps {
	rs := runner.ReplicateSpec{Spec: s.spec(label, schedID, sets[0], cores, mk, mutate)}
	rs.SetFor = func(rep int) *workload.Set { return sets[rep] }
	rs.SchedFor = schedFor
	rs.KeyFor = func(rep int, cfg sim.Config) string { return s.cacheKey(label, cfg, sets[rep]) }
	rs.RemoteFor = func(rep int, cfg sim.Config, cacheKey string) interface{} {
		id := schedID
		if schedFor != nil {
			id, _ = schedFor(rep)
		}
		return s.remotePayload(label, cfg, id, sets[rep], cacheKey)
	}
	seeds := make([]uint64, len(sets))
	for rep := range seeds {
		// Record the seed that actually generated this replicate's set:
		// the sweep derives its per-point base seed before replicating,
		// so the master-derived seedFor(rep) would publish wrong
		// provenance for its cells. Unknown (derived) sets fall back to
		// the suite convention.
		if seed, ok := s.setSeeds[sets[rep]]; ok {
			seeds[rep] = seed
		} else {
			seeds[rep] = s.seedFor(rep)
		}
	}
	return &Reps{batch: s.exec.SubmitReplicates(rs, len(sets)), sets: sets, seeds: seeds}
}

// recordReps records a replicated cell: the scalar record mirrors
// replicate 0 (so single-seed BENCH trajectories are unchanged), and
// with Seeds > 1 the per-replicate array and summary block ride along.
func (s *Suite) recordReps(experiment, workload, sched string, cores int, r *Reps) {
	results := r.Results()
	sts := make([]sim.Stats, len(results))
	txns := make([]int, len(results))
	for i, res := range results {
		sts[i] = res.Stats
		txns[i] = r.Txns(i)
	}
	s.record(metrics.ReplicatedRecordOf(experiment, workload, sched, cores, r.seeds, txns, sts))
}

// aggregated reports whether the suite emits replicate aggregates.
func (s *Suite) aggregated() bool { return s.opts.Seeds > 1 }

// pushAgg queues an aggregate table produced by a driver.
func (s *Suite) pushAgg(tab *metrics.Table) { s.aggs = append(s.aggs, tab) }

// DrainAggregates returns (and clears) the aggregate tables the
// drivers produced since the last call — one per replicated figure,
// rendered by cmd/experiments directly after the figure's classic
// table. Always empty at Seeds=1, which is what keeps single-seed
// stdout byte-identical to the committed goldens.
func (s *Suite) DrainAggregates() []*metrics.Table {
	out := s.aggs
	s.aggs = nil
	return out
}
