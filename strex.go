package strex

import (
	"fmt"
	"strings"
	"sync"

	"strex/internal/bench"
	"strex/internal/cache"
	"strex/internal/core"
	"strex/internal/memsys"
	"strex/internal/obs"
	"strex/internal/prefetch"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/stats"
	"strex/internal/synth"
	"strex/internal/tracefile"
	"strex/internal/workload"
)

// SchedulerKind selects a transaction scheduler.
type SchedulerKind int

const (
	// SchedBaseline is conventional execution: a transaction runs to
	// completion on whichever core picked it up.
	SchedBaseline SchedulerKind = iota
	// SchedSTREX is the paper's stratified execution.
	SchedSTREX
	// SchedSLICC is the migration-based prior technique.
	SchedSLICC
	// SchedHybrid profiles footprints and picks STREX or SLICC.
	SchedHybrid
)

// String returns the scheduler's paper label.
func (k SchedulerKind) String() string {
	switch k {
	case SchedBaseline:
		return "Base"
	case SchedSTREX:
		return "STREX"
	case SchedSLICC:
		return "SLICC"
	case SchedHybrid:
		return "STREX+SLICC"
	}
	return fmt.Sprintf("SchedulerKind(%d)", int(k))
}

// ParseScheduler resolves a scheduler name to its SchedulerKind. It
// accepts the CLI spellings (base, baseline, strex, slicc, hybrid) and
// the paper labels String returns, case-insensitively. Both binaries
// parse -sched flags through this one function.
func ParseScheduler(name string) (SchedulerKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "base", "baseline":
		return SchedBaseline, nil
	case "strex":
		return SchedSTREX, nil
	case "slicc":
		return SchedSLICC, nil
	case "hybrid", "strex+slicc":
		return SchedHybrid, nil
	}
	return 0, fmt.Errorf("strex: unknown scheduler %q (base, strex, slicc, hybrid)", name)
}

// Config describes the simulated system. Zero values fall back to the
// paper's Table 2 configuration via DefaultConfig.
type Config struct {
	Cores      int
	L1IKB      int    // L1 instruction cache capacity (default 32)
	L1DKB      int    // L1 data cache capacity (default 32)
	L1Ways     int    // associativity (default 8)
	Policy     string // L1-I replacement policy: LRU, LIP, BIP, SRRIP, BRRIP
	Prefetcher string // "", "next-line" or "pif" (PIF upper bound)
	TeamSize   int    // STREX team size (default 10)
	PoolWindow int    // scheduler-visible pending transactions (default 30)
	// Seed drives the simulator's tie-breaking randomness. Like every
	// other Config field, the zero value means "use the default": Seed 0
	// silently aliases to the default seed 1 and is NOT a distinct
	// seed. Callers that need a full-range seed space (e.g. per-run
	// seeds in a grid) should produce seeds with DeriveSeed, which
	// never returns 0. Workload generation seeds are separate
	// (WorkloadOptions.Seed) and are used verbatim.
	Seed uint64
}

// DeriveSeed maps a master seed and a run index to a well-distributed
// per-run seed (re-exported from the run executor). It is pure, so a
// grid seeded with DeriveSeed(master, i) is reproducible regardless of
// execution order, and it never returns 0 — the value Config.Seed and
// WorkloadOptions-free builders treat as "use the default".
func DeriveSeed(master uint64, index int) uint64 { return runner.DeriveSeed(master, index) }

// DefaultConfig returns the paper's system for n cores.
func DefaultConfig(n int) Config {
	return Config{Cores: n, L1IKB: 32, L1DKB: 32, L1Ways: 8, Policy: "LRU", TeamSize: 10, PoolWindow: 30, Seed: 1}
}

func (c Config) build() (sim.Config, error) {
	if c.Cores <= 0 || c.Cores > memsys.MaxCores {
		return sim.Config{}, fmt.Errorf("strex: Cores must be in [1, %d], got %d", memsys.MaxCores, c.Cores)
	}
	cfg := sim.DefaultConfig(c.Cores)
	if c.L1IKB > 0 {
		cfg.L1IKB = c.L1IKB
	}
	if c.L1DKB > 0 {
		cfg.L1DKB = c.L1DKB
	}
	if c.L1Ways > 0 {
		cfg.L1Ways = c.L1Ways
	}
	if c.PoolWindow > 0 {
		cfg.PoolWindow = c.PoolWindow
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.Policy != "" {
		pol, err := cache.ParsePolicy(c.Policy)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.IPolicy = pol
	}
	switch c.Prefetcher {
	case "":
		cfg.Prefetcher = prefetch.None
	case "next-line":
		cfg.Prefetcher = prefetch.NextLine
	case "pif":
		cfg.Prefetcher = prefetch.PIF
	default:
		return sim.Config{}, fmt.Errorf("strex: unknown prefetcher %q", c.Prefetcher)
	}
	return cfg, nil
}

// Workload is a generated, replayable transaction set. Its identity —
// provenance and transaction count — is known without its content, so
// a run whose result is already cached can be answered without ever
// loading the set (see BuildWorkload).
type Workload struct {
	prov tracefile.Provenance
	// txns is the transaction count: the requested count for generated
	// workloads (bench.BuildSet guarantees the set holds exactly that
	// many), the set's length for loaded ones.
	txns int
	// syn holds the raw synth parameters when this is a generated Synth
	// workload — the structural form of prov.Extra, needed to describe
	// the set to sharding workers (see sharding.go). Nil for fixed
	// benchmarks and trace-file loads.
	syn *synth.Params

	// rc is the trace cache a generated workload loads its set from and
	// stores it to (nil = uncached). The set itself is materialized once,
	// on first use (see load); a loaded trace file has it from the start.
	rc   *runcache.Cache
	once sync.Once
	set  *workload.Set
	err  error

	// fp memoizes the hybrid's profile of the set (see footprint).
	fpOnce sync.Once
	fp     *core.FPTable
	fpErr  error
}

// setKey is the workload's trace-cache address, rebuilt from its
// identity alone: computing it, or a run key over it, needs no set.
func (w *Workload) setKey() runcache.SetKey {
	return runcache.SetKey{
		Workload: w.prov.Workload,
		Seed:     w.prov.Seed,
		Scale:    w.prov.Scale,
		Txns:     w.txns,
		TypeID:   w.prov.TypeID,
		Extra:    w.prov.Extra,
	}
}

// load returns the workload's set, materializing it on first use. A
// cache handle rc open on the workload's own cache directory (a pool's)
// serves the trace lookup, so its traffic counters see the load;
// otherwise the workload's own handle does. Safe for concurrent use:
// the set is materialized once and every caller gets that outcome.
func (w *Workload) load(rc *runcache.Cache) (*workload.Set, error) {
	w.once.Do(func() { w.set, w.err = w.materialize(rc) })
	return w.set, w.err
}

// materialize reads a generated workload's set from the trace cache, or
// generates it and stores it there.
func (w *Workload) materialize(rc *runcache.Cache) (*workload.Set, error) {
	if rc == nil || rc.Dir() != w.rc.Dir() {
		rc = w.rc
	}
	key := w.setKey()
	if set, ok := rc.GetSet(key); ok && len(set.Txns) == w.txns {
		return set, nil
	}
	opts := bench.Options{Seed: w.prov.Seed, Scale: w.prov.Scale}
	if w.syn != nil {
		opts.Synth = *w.syn
	}
	set, err := bench.BuildSet(w.prov.Workload, w.txns, opts)
	if err != nil {
		return nil, err
	}
	// Store failures degrade to "regenerate next time" (the set in hand
	// is complete and valid), matching the runner's policy for result
	// stores.
	_ = rc.PutSet(key, set)
	return set, nil
}

// footprint returns the hybrid's profile of the workload's set, once
// per workload: read from its footprint record in rc (a pool's cache;
// nil or disabled selects the workload's own), or measured on the set,
// which is loaded for the purpose, and stored there. A run whose
// profile is on record therefore picks its mechanism without the set.
func (w *Workload) footprint(rc *runcache.Cache) (*core.FPTable, error) {
	w.fpOnce.Do(func() {
		if !rc.Enabled() {
			rc = w.rc
		}
		if w.prov.Workload == "" {
			rc = nil // no identity to key a record on
		}
		key := w.setKey()
		if fp, ok := rc.GetFootprint(key, core.HybridSamples); ok {
			w.fp = fp
			return
		}
		set, err := w.load(rc)
		if err != nil {
			w.fpErr = err
			return
		}
		w.fp = core.MeasureFPTable(set, core.HybridSamples)
		// A failed store degrades to "profile again next time".
		_ = rc.PutFootprint(key, core.HybridSamples, w.fp)
	})
	return w.fp, w.fpErr
}

// content returns the set for the accessors that read it, loading it on
// first use. Loading fails only when a generator breaks its own
// contract (an invalid set or a wrong count), which no registered
// generator does, so a failure here is a program defect and panics.
func (w *Workload) content() *workload.Set {
	set, err := w.load(nil)
	if err != nil {
		panic(fmt.Sprintf("strex: loading workload %s: %v", w.prov.Workload, err))
	}
	return set
}

// Name returns the workload label (e.g. "TPC-C-10").
func (w *Workload) Name() string { return w.content().Name }

// Txns returns the number of transactions.
func (w *Workload) Txns() int { return w.txns }

// Instrs returns the total instruction count.
func (w *Workload) Instrs() uint64 { return w.content().Instrs() }

// Types returns the transaction type names.
func (w *Workload) Types() []string { return append([]string(nil), w.content().Types...) }

// FootprintUnits returns the average per-type instruction footprint in
// 32KB L1-I units (the paper's Table 3 metric), profiled as Table 3
// profiles it: four samples per type, where the hybrid averages
// core.HybridSamples.
func (w *Workload) FootprintUnits() float64 {
	return core.MeasureFPTable(w.content(), 4).AverageUnits()
}

// WorkloadInfo describes one registered workload (see Workloads).
type WorkloadInfo struct {
	// Name is the canonical registry name, accepted by BuildWorkload.
	Name string
	// Aliases are alternative accepted spellings (CLI-friendly).
	Aliases []string
	// Description is a one-line summary.
	Description string
	// TxnTypes lists the transaction type labels.
	TxnTypes []string
	// ScaleHint documents what WorkloadOptions.Scale means here.
	ScaleHint string
	// STREXWins is the paper-model expectation: whether the per-type
	// instruction footprint exceeds one L1-I, the precondition for
	// stratified execution to pay off.
	STREXWins bool
}

// Workloads lists every registered workload: the paper's originals
// (TPC-C-1, TPC-C-10, TPC-E, MapReduce), the extended OLTP family
// (TATP, Voter, SmallBank) and the Synth footprint generator.
func Workloads() []WorkloadInfo {
	infos := bench.Workloads()
	out := make([]WorkloadInfo, len(infos))
	for i, in := range infos {
		out[i] = WorkloadInfo{
			Name:        in.Name,
			Aliases:     in.Aliases,
			Description: in.Description,
			TxnTypes:    in.TxnTypes,
			ScaleHint:   in.ScaleHint,
			STREXWins:   in.STREXWins,
		}
	}
	return out
}

// WorkloadOptions parameterizes BuildWorkload. Only Txns is required.
type WorkloadOptions struct {
	// Txns is the number of transactions to generate (required).
	Txns int
	// Seed drives workload generation and is used verbatim — 0 is a
	// valid seed distinct from 1 (unlike Config.Seed, which treats 0 as
	// "use the default").
	Seed uint64
	// Scale is the benchmark-specific size knob; 0 selects the
	// workload's default (see WorkloadInfo.ScaleHint).
	Scale int
	// SynthFootprintUnits, SynthTypes and SynthDataReuse dial the
	// "Synth" workload (ignored by the fixed benchmarks); zero values
	// select synth's defaults (4 units, 4 types, 0.5 reuse).
	SynthFootprintUnits float64
	SynthTypes          int
	SynthDataReuse      float64
	// CacheDir enables the on-disk workload cache (see docs/TRACES.md):
	// generation is skipped when a trace artifact for the exact
	// (workload, seed, scale, txns, synth knobs) already exists, and a
	// fresh generation is stored for next time. Empty disables caching.
	CacheDir string
	// NoCache disables the cache even when CacheDir is set (the CLI's
	// -no-cache passthrough).
	NoCache bool
}

// BuildWorkload generates a workload by registry name (or alias) — the
// single entry point the CLIs, the experiment drivers and library users
// share. The returned workload is replayable: running it under two
// schedulers compares them on identical transactions. With
// WorkloadOptions.CacheDir set, generation is memoized on disk —
// cached and fresh builds are byte-identical because set content is a
// pure function of the options — and the set is loaded on first use,
// not here: it is read from the trace cache, or generated and stored,
// when a run must execute or an accessor reads the content. A run whose
// result is already in a pool's cache never loads it. Without a cache
// the set is generated before BuildWorkload returns.
func BuildWorkload(name string, opts WorkloadOptions) (*Workload, error) {
	canonical := name
	info, known := bench.Lookup(name)
	if known {
		canonical = info.Name // aliases share artifacts and provenance
	}
	var extra string
	var syn *synth.Params
	if canonical == "Synth" {
		syn = &synth.Params{
			FootprintUnits: opts.SynthFootprintUnits,
			Types:          opts.SynthTypes,
			DataReuse:      opts.SynthDataReuse,
		}
		extra = fmt.Sprintf("%#v", *syn) // synth knobs determine content too
	}
	w := &Workload{
		prov: tracefile.Provenance{
			Workload: canonical, Seed: opts.Seed, Scale: opts.Scale,
			TypeID: -1, // the facade only builds mixed streams
			Extra:  extra,
		},
		txns: opts.Txns,
		syn:  syn,
	}
	if known && opts.Txns > 0 && opts.CacheDir != "" && !opts.NoCache {
		var err error
		if w.rc, err = runcache.Open(opts.CacheDir); err != nil {
			return nil, err
		}
		return w, nil
	}
	if _, err := w.load(nil); err != nil {
		return nil, err
	}
	return w, nil
}

// SaveTrace writes the workload to path as a versioned, checksummed
// .strextrace artifact (see docs/TRACES.md for the format). The file
// replays anywhere via LoadWorkload or strexsim -load-trace.
func (w *Workload) SaveTrace(path string) error {
	set, err := w.load(nil)
	if err != nil {
		return err
	}
	return tracefile.Save(path, set, w.prov)
}

// LoadWorkload reads a .strextrace artifact previously written by
// SaveTrace, tracegen -o, or the run cache. The checksum and structural
// invariants are verified before any trace reaches a simulator.
func LoadWorkload(path string) (*Workload, error) {
	set, meta, err := tracefile.Load(path)
	if err != nil {
		return nil, err
	}
	w := &Workload{prov: meta.Provenance, txns: len(set.Txns)}
	w.once.Do(func() { w.set = set })
	return w, nil
}

// TPCCConfig parameterizes a TPC-C workload.
type TPCCConfig struct {
	Warehouses int // 1 and 10 reproduce the paper's TPC-C-1 / TPC-C-10
	Txns       int
	Seed       uint64
}

// TPCC builds a TPC-C workload (shorthand for BuildWorkload with
// Scale=Warehouses).
func TPCC(cfg TPCCConfig) (*Workload, error) {
	if cfg.Warehouses <= 0 || cfg.Txns <= 0 {
		return nil, fmt.Errorf("strex: TPCC needs positive Warehouses and Txns, got %+v", cfg)
	}
	return BuildWorkload("TPC-C-1", WorkloadOptions{Txns: cfg.Txns, Seed: cfg.Seed, Scale: cfg.Warehouses})
}

// TPCEConfig parameterizes a TPC-E workload.
type TPCEConfig struct {
	Txns int
	Seed uint64
}

// TPCE builds a TPC-E workload (shorthand for BuildWorkload).
func TPCE(cfg TPCEConfig) (*Workload, error) {
	if cfg.Txns <= 0 {
		return nil, fmt.Errorf("strex: TPCE needs positive Txns")
	}
	return BuildWorkload("TPC-E", WorkloadOptions{Txns: cfg.Txns, Seed: cfg.Seed})
}

// MapReduceConfig parameterizes the MapReduce control workload.
type MapReduceConfig struct {
	Tasks int
	Seed  uint64
}

// MapReduce builds the small-instruction-footprint control workload
// (shorthand for BuildWorkload).
func MapReduce(cfg MapReduceConfig) (*Workload, error) {
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("strex: MapReduce needs positive Tasks")
	}
	return BuildWorkload("MapReduce", WorkloadOptions{Txns: cfg.Tasks, Seed: cfg.Seed})
}

// Result summarizes one simulation run.
type Result struct {
	Scheduler  string
	Cycles     uint64 // makespan
	BusyCycles uint64 // execution cycles summed over cores
	Instrs     uint64
	IMPKI      float64
	DMPKI      float64
	Switches   uint64
	Migrations uint64

	// ThroughputTPM is transactions per mega-cycle of per-core busy time
	// (the steady-state measure used in the paper's Figure 6).
	ThroughputTPM float64
	// MeanLatency is the average queue-to-completion latency in cycles.
	MeanLatency float64
	// Latencies holds per-transaction latencies in cycles, in workload
	// order, for distribution analysis (Figure 7).
	Latencies []uint64
}

// schedChoice is a scheduler selection resolved to what runs: the
// identity its runs deduplicate and cache under (every knob that
// changes scheduling behaviour appears in it, since it parameterizes
// runcache.RunKey.Sched), the label its results carry, and a factory
// for fresh instances.
type schedChoice struct {
	id    string
	label string
	mk    func() sim.Scheduler
}

// choose resolves a scheduler selection for a run on this config. The
// hybrid resolves to the mechanism it picks for the workload profile
// describes (called for the hybrid only), and runs as that mechanism,
// under its identity, labelled "STREX+SLICC(<mechanism>)". Its STREX is
// the paper's (window 30, team 10) whatever this config's team size.
func (c Config) choose(kind SchedulerKind, profile func() (*core.FPTable, error)) (schedChoice, error) {
	switch kind {
	case SchedBaseline:
		return schedChoice{"base", "Base", func() sim.Scheduler { return sched.NewBaseline() }}, nil
	case SchedSTREX:
		fc := core.FormationConfig{Window: c.PoolWindow, TeamSize: c.TeamSize}
		if fc.TeamSize <= 0 {
			fc.TeamSize = 10
		}
		if fc.Window <= 0 {
			fc.Window = 30
		}
		id := fmt.Sprintf("strex/w%d/t%d", fc.Window, fc.TeamSize)
		return schedChoice{id, "STREX", func() sim.Scheduler { return sched.NewStrexSized(fc) }}, nil
	case SchedSLICC:
		return schedChoice{"slicc", "SLICC", func() sim.Scheduler { return sched.NewSlicc() }}, nil
	case SchedHybrid:
		fp, err := profile()
		if err != nil {
			return schedChoice{}, err
		}
		inner := SchedSTREX
		if fp.ChooseSLICC(c.Cores) {
			inner = SchedSLICC
		}
		ch, err := DefaultConfig(c.Cores).choose(inner, nil)
		ch.label = "STREX+SLICC(" + ch.label + ")"
		return ch, err
	}
	return schedChoice{}, fmt.Errorf("strex: unknown scheduler %v", kind)
}

func toResult(name string, res sim.Result, txns, cores int) Result {
	out := Result{
		Scheduler:     name,
		Cycles:        res.Stats.Cycles,
		BusyCycles:    res.Stats.BusyCycles,
		Instrs:        res.Stats.Instrs,
		IMPKI:         res.Stats.IMPKI(),
		DMPKI:         res.Stats.DMPKI(),
		Switches:      res.Stats.Switches,
		Migrations:    res.Stats.Migrations,
		ThroughputTPM: res.Stats.SteadyThroughput(txns, cores),
	}
	var sum float64
	for _, th := range res.Threads {
		out.Latencies = append(out.Latencies, th.Latency())
		sum += float64(th.Latency())
	}
	if len(out.Latencies) > 0 {
		out.MeanLatency = sum / float64(len(out.Latencies))
	}
	return out
}

// Run executes the workload under the chosen scheduler and returns the
// aggregated result. The workload is replayed from the start each call,
// so comparing schedulers on the same *Workload is exact.
func Run(cfg Config, w *Workload, kind SchedulerKind) (Result, error) {
	results, err := RunMany(w, []RunSpec{{Config: cfg, Sched: kind}}, 1, nil)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// RunTraced is Run with a run-timeline tracer attached: the engine
// records one span per scheduling quantum and per hit-run absorption
// stretch into a tracer holding up to events entries (<= 0 selects the
// default capacity). The tracer is returned alongside the
// result; export it with Timeline.WriteChrome (Chrome trace-event JSON,
// loadable in Perfetto — see docs/OBSERVABILITY.md). Tracing is purely
// observational: the Result is identical to Run's.
func RunTraced(cfg Config, w *Workload, kind SchedulerKind, events int) (Result, *obs.Timeline, error) {
	if w == nil || w.txns == 0 {
		return Result{}, nil, fmt.Errorf("strex: RunTraced needs a non-empty workload")
	}
	set, err := w.load(nil)
	if err != nil {
		return Result{}, nil, err
	}
	simCfg, err := cfg.build()
	if err != nil {
		return Result{}, nil, err
	}
	ch, err := cfg.choose(kind, func() (*core.FPTable, error) { return w.footprint(nil) })
	if err != nil {
		return Result{}, nil, err
	}
	tl := obs.NewTimeline(events)
	tl.SetMeta(w.prov.Workload, ch.label, simCfg.Cores)
	eng := sim.New(simCfg, set, ch.mk())
	eng.SetTimeline(tl)
	res := eng.Run().Detach()
	return toResult(ch.label, res, w.txns, simCfg.Cores), tl, nil
}

// Timeline re-exports the obs tracer type so facade callers need not
// import the internal package.
type Timeline = obs.Timeline

// RunSpec pairs a system configuration with a scheduler selection for
// batch execution.
type RunSpec struct {
	Config Config
	Sched  SchedulerKind
}

// RunMany executes the given runs on up to parallel concurrent worker
// goroutines (parallel <= 0 selects GOMAXPROCS) and returns results in
// spec order. Every run replays w from the start with its own engine and
// scheduler, and runs are deterministic, so the results are bit-for-bit
// identical to calling Run in a loop — only the wall-clock changes.
// onProgress, if non-nil, is invoked after each completed run.
// RunMany is the in-process special case of RunManySharded (see
// sharding.go).
func RunMany(w *Workload, specs []RunSpec, parallel int, onProgress func(done, total int)) ([]Result, error) {
	return RunManySharded(w, specs, GridOptions{Parallel: parallel, OnProgress: onProgress})
}

// Summary describes one metric across the replicates of a
// RunReplicated call: sample size, central tendency, spread, and the
// half-width of the two-sided 95% confidence interval on the mean
// (Student-t at N-1 degrees of freedom — see docs/STATS.md). The
// interval is [Mean-CI95, Mean+CI95]; N=1 yields a zero-width interval.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Median float64
	CI95   float64
}

func summaryOf(s stats.Summary) Summary {
	return Summary{N: s.N, Mean: s.Mean, Stddev: s.Stddev, Min: s.Min, Max: s.Max, Median: s.Median, CI95: s.CI95}
}

// Format renders "mean ±ci95" with the given precision — the same
// aggregate-cell format the experiment suite's tables use.
func (s Summary) Format(prec int) string {
	return fmt.Sprintf("%.*f ±%.*f", prec, s.Mean, prec, s.CI95)
}

// ReplicatedResult bundles the per-seed results of a replicated run
// with their aggregate summaries.
type ReplicatedResult struct {
	// Results holds one Result per replicate, in replicate order.
	// Replicate 0 ran at the verbatim seeds and is byte-identical to a
	// plain Run with the same arguments; later replicates ran fresh
	// trace draws at derived seeds.
	Results []Result
	// Seeds holds each replicate's workload-generation seed (the
	// config seed is derived in parallel from Config.Seed).
	Seeds []uint64
	// Aggregates over the replicates, one per headline metric.
	IMPKI, DMPKI, Throughput, MeanLatency Summary
}

// RunReplicated builds the named workload `seeds` times — replicate 0
// at WorkloadOptions.Seed verbatim, later replicates at
// DeriveSeed-derived seeds, i.e. statistically independent trace draws
// — and runs each draw under the chosen scheduler, fanning the runs
// over up to `parallel` workers (<= 0 selects GOMAXPROCS). The returned
// summaries carry mean ±95% CI per metric, which is what makes a
// "scheduler A beats scheduler B" claim defensible rather than a
// single-seed point estimate. With WorkloadOptions.CacheDir set, each
// replicate's trace is individually cached on disk. seeds < 1 is
// treated as 1 (the degenerate single-run case, zero-width intervals).
func RunReplicated(cfg Config, name string, wopts WorkloadOptions, kind SchedulerKind, seeds, parallel int) (*ReplicatedResult, error) {
	draws, err := ReplicateWorkloads(name, wopts, seeds)
	if err != nil {
		return nil, err
	}
	return RunDraws(cfg, draws, kind, parallel)
}

// ReplicateWorkloads builds the N per-replicate trace draws of a
// registered workload: draw 0 at WorkloadOptions.Seed verbatim, later
// draws at DeriveSeed-derived seeds. Workload content is independent
// of any simulator configuration, so a grid of (cores, scheduler)
// cells builds its draws once here and runs every cell on them via
// RunDraws — that is exactly how strexsim's -seeds grid avoids
// regenerating N workloads per cell.
func ReplicateWorkloads(name string, wopts WorkloadOptions, seeds int) ([]*Workload, error) {
	if seeds < 1 {
		seeds = 1
	}
	draws := make([]*Workload, seeds)
	for rep := range draws {
		ropts := wopts
		ropts.Seed = runner.ReplicateSeed(wopts.Seed, rep)
		w, err := BuildWorkload(name, ropts)
		if err != nil {
			return nil, err
		}
		draws[rep] = w
	}
	return draws, nil
}

// RunDraws runs one (config, scheduler) cell over pre-built replicate
// draws (from ReplicateWorkloads) and aggregates the results. Draw
// index doubles as replicate index: the config seed of draw r is
// derived by the same ReplicateSeed rule the draws' workload seeds
// used, so RunDraws(cfg, ReplicateWorkloads(...)) ≡ RunReplicated.
func RunDraws(cfg Config, draws []*Workload, kind SchedulerKind, parallel int) (*ReplicatedResult, error) {
	out, err := RunManyDraws(draws, []RunSpec{{Config: cfg, Sched: kind}}, parallel, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunManyDraws runs a whole grid of (config, scheduler) cells over the
// same replicate draws, fanning every cell's every replicate over one
// worker pool — all cells are submitted before any is collected, so a
// 16-run grid at -parallel 16 keeps 16 simulations in flight, exactly
// like the non-replicated RunMany. Results come back in spec order.
// onProgress, if non-nil, is invoked after each completed replicate
// with (done, total) counted across the whole grid. RunManyDraws is
// the in-process special case of RunManyDrawsSharded (see sharding.go).
func RunManyDraws(draws []*Workload, specs []RunSpec, parallel int, onProgress func(done, total int)) ([]*ReplicatedResult, error) {
	return RunManyDrawsSharded(draws, specs, GridOptions{Parallel: parallel, OnProgress: onProgress})
}

// HardwareCostBytes returns STREX's per-core storage cost in bytes
// (Table 4): 890.5 for STREX alone, 1166.5 with the hybrid's SLICC
// cache-monitor unit.
func HardwareCostBytes(includeHybrid bool) float64 {
	h := core.DefaultHardwareCost()
	h.IncludeHybrid = includeHybrid
	return h.TotalBytes()
}
