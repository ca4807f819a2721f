package strex

import (
	"fmt"
	"strings"

	"strex/internal/bench"
	"strex/internal/cache"
	"strex/internal/core"
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
	if c.Cores <= 0 {
		return sim.Config{}, fmt.Errorf("strex: Cores must be positive, got %d", c.Cores)
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

// Workload is a generated, replayable transaction set.
type Workload struct {
	set  *workload.Set
	prov tracefile.Provenance
	// syn holds the raw synth parameters when this is a generated Synth
	// workload — the structural form of prov.Extra, needed to describe
	// the set to sharding workers (see sharding.go). Nil for fixed
	// benchmarks and trace-file loads.
	syn *synth.Params
}

// Name returns the workload label (e.g. "TPC-C-10").
func (w *Workload) Name() string { return w.set.Name }

// Txns returns the number of transactions.
func (w *Workload) Txns() int { return len(w.set.Txns) }

// Instrs returns the total instruction count.
func (w *Workload) Instrs() uint64 { return w.set.Instrs() }

// Types returns the transaction type names.
func (w *Workload) Types() []string { return append([]string(nil), w.set.Types...) }

// FootprintUnits returns the average per-type instruction footprint in
// 32KB L1-I units (the paper's Table 3 metric), as the hybrid's FPTable
// profiling would measure it.
func (w *Workload) FootprintUnits() float64 {
	return core.MeasureFPTable(w.set, 4).AverageUnits()
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
// pure function of the options.
func BuildWorkload(name string, opts WorkloadOptions) (*Workload, error) {
	sp := synth.Params{
		FootprintUnits: opts.SynthFootprintUnits,
		Types:          opts.SynthTypes,
		DataReuse:      opts.SynthDataReuse,
	}
	canonical := name
	info, known := bench.Lookup(name)
	if known {
		canonical = info.Name // aliases share artifacts and provenance
	}
	var extra string
	var syn *synth.Params
	if canonical == "Synth" {
		extra = fmt.Sprintf("%#v", sp) // synth knobs determine content too
		p := sp
		syn = &p
	}
	var rc *runcache.Cache
	var key runcache.SetKey
	if known && opts.CacheDir != "" && !opts.NoCache {
		var err error
		if rc, err = runcache.Open(opts.CacheDir); err != nil {
			return nil, err
		}
		key = runcache.SetKey{
			Workload: canonical,
			Seed:     opts.Seed,
			Scale:    opts.Scale,
			Txns:     opts.Txns,
			TypeID:   -1,
			Extra:    extra,
		}
		if set, ok := rc.GetSet(key); ok {
			return &Workload{set: set, prov: provenance(canonical, extra, opts), syn: syn}, nil
		}
	}
	set, err := bench.BuildSet(name, opts.Txns, bench.Options{
		Seed:  opts.Seed,
		Scale: opts.Scale,
		Synth: sp,
	})
	if err != nil {
		return nil, err
	}
	if rc != nil {
		// Store failures degrade to "regenerate next time" (the workload
		// in hand is complete and valid), matching the runner's policy
		// for result stores.
		_ = rc.PutSet(key, set)
	}
	return &Workload{set: set, prov: provenance(canonical, extra, opts), syn: syn}, nil
}

func provenance(canonical, extra string, opts WorkloadOptions) tracefile.Provenance {
	return tracefile.Provenance{
		Workload: canonical, Seed: opts.Seed, Scale: opts.Scale,
		TypeID: -1, // the facade only builds mixed streams
		Extra:  extra,
	}
}

// SaveTrace writes the workload to path as a versioned, checksummed
// .strextrace artifact (see docs/TRACES.md for the format). The file
// replays anywhere via LoadWorkload or strexsim -load-trace.
func (w *Workload) SaveTrace(path string) error {
	return tracefile.Save(path, w.set, w.prov)
}

// LoadWorkload reads a .strextrace artifact previously written by
// SaveTrace, tracegen -o, or the run cache. The checksum and structural
// invariants are verified before any trace reaches a simulator.
func LoadWorkload(path string) (*Workload, error) {
	set, meta, err := tracefile.Load(path)
	if err != nil {
		return nil, err
	}
	return &Workload{set: set, prov: meta.Provenance}, nil
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

// scheduler builds a fresh scheduler instance for one run of w under
// this configuration.
func (c Config) scheduler(kind SchedulerKind, w *Workload, cores int) (sim.Scheduler, error) {
	switch kind {
	case SchedBaseline:
		return sched.NewBaseline(), nil
	case SchedSTREX:
		ts := c.TeamSize
		if ts <= 0 {
			ts = 10
		}
		win := c.PoolWindow
		if win <= 0 {
			win = 30
		}
		return sched.NewStrexSized(core.FormationConfig{Window: win, TeamSize: ts}), nil
	case SchedSLICC:
		return sched.NewSlicc(), nil
	case SchedHybrid:
		return sched.NewHybrid(w.set, cores, 3), nil
	}
	return nil, fmt.Errorf("strex: unknown scheduler %v", kind)
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
	if w == nil || w.set == nil || len(w.set.Txns) == 0 {
		return Result{}, nil, fmt.Errorf("strex: RunTraced needs a non-empty workload")
	}
	simCfg, err := cfg.build()
	if err != nil {
		return Result{}, nil, err
	}
	s, err := cfg.scheduler(kind, w, simCfg.Cores)
	if err != nil {
		return Result{}, nil, err
	}
	tl := obs.NewTimeline(events)
	tl.SetMeta(w.prov.Workload, s.Name(), simCfg.Cores)
	eng := sim.New(simCfg, w.set, s)
	eng.SetTimeline(tl)
	res := eng.Run().Detach()
	return toResult(s.Name(), res, len(w.set.Txns), simCfg.Cores), tl, nil
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
		if len(w.set.Txns) == 0 {
			return nil, fmt.Errorf("strex: replicated runs need a non-empty workload")
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
