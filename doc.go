// Package strex is a reproduction of "STREX: Boosting Instruction Cache
// Reuse in OLTP Workloads Through Stratified Transaction Execution"
// (Atta, Tözün, Tong, Ailamaki, Moshovos — ISCA 2013).
//
// STREX groups same-type OLTP transactions into teams on a single core
// and time-multiplexes their execution in cache-sized slices: every
// instruction block a transaction touches is tagged with the core's
// current 8-bit phaseID; the moment a transaction would evict a block
// tagged with the *current* phase — a block its teammates still need —
// it is context-switched to the back of the team queue. The lead
// transaction increments the phase whenever it resumes, so the team
// marches through the shared instruction footprint one L1-I-sized
// segment at a time, and only the lead pays the misses.
//
// The package exposes a small façade over the full simulation stack:
//
//   - build a workload from the central registry (Workloads lists
//     TPC-C, TPC-E, TATP, SmallBank, Voter, MapReduce and the Synth
//     footprint generator; see docs/WORKLOADS.md),
//   - pick a scheduler (Baseline, STREX, SLICC, Hybrid),
//   - Run it on a simulated chip multiprocessor,
//   - inspect misses, throughput and latency in the Result.
//
// The heavy machinery lives in internal/ packages: a set-associative
// cache model with pluggable replacement policies and phaseID tags, a
// NUCA L2 + directory-coherent memory system, a miniature storage
// manager (B+-trees, heap tables, locking, logging) that generates
// instruction/data traces with the code-overlap structure of Shore-MT,
// the schedulers, and drivers reproducing every table and figure of the
// paper's evaluation (see docs/MODEL.md and EXPERIMENTS.md).
//
// Quick start (the repo is a self-contained module, `module strex`, with
// no external dependencies — `go build ./... && go test ./...` from a
// fresh clone is the whole bootstrap; see docs/RUNNING.md):
//
//	wl, err := strex.BuildWorkload("TATP", strex.WorkloadOptions{Txns: 100, Seed: 1})
//	if err != nil { ... }
//	base, _ := strex.Run(strex.DefaultConfig(4), wl, strex.SchedBaseline)
//	fast, _ := strex.Run(strex.DefaultConfig(4), wl, strex.SchedSTREX)
//	fmt.Printf("I-MPKI %.1f -> %.1f\n", base.IMPKI, fast.IMPKI)
//
// Any registered workload name or alias works — strex.Workloads()
// enumerates them with descriptions and expectations, and the typed
// shorthands (TPCC, TPCE, MapReduce) remain for the paper's originals.
//
// Independent runs fan out over a bounded worker pool without changing
// any result (every run is deterministic and isolated; see
// internal/runner):
//
//	specs := []strex.RunSpec{
//	    {Config: strex.DefaultConfig(4), Sched: strex.SchedBaseline},
//	    {Config: strex.DefaultConfig(4), Sched: strex.SchedSTREX},
//	    {Config: strex.DefaultConfig(8), Sched: strex.SchedSLICC},
//	}
//	results, _ := strex.RunMany(wl, specs, 0 /* GOMAXPROCS */, nil)
//
// The cmd/experiments and cmd/strexsim binaries expose the same knob as
// -parallel. Scale note: the paper replays 1.2B-instruction samples per
// configuration; the default experiment scale (Txns=160) replays tens of
// millions of instructions per configuration so the full grid finishes
// in minutes — raise -txns for higher-fidelity numbers.
//
// Workloads persist: SaveTrace/LoadWorkload round-trip a workload
// through a versioned, checksummed .strextrace artifact, and
// WorkloadOptions.CacheDir memoizes generation in a content-addressed
// on-disk store (internal/tracefile, internal/runcache). The CLIs
// expose the same machinery as -save-trace/-load-trace/-cache-dir, and
// cmd/experiments additionally memoizes run results, so a warm rerun
// performs zero workload generations while emitting byte-identical
// tables — see docs/TRACES.md for the file format, cache layout and
// invalidation rules, and docs/RUNNING.md for the caching workflow.
//
// The simulator itself runs on an event-driven execution core:
// heap-scheduled cores, scheduler capability masks and an L1-hit
// fast path, byte-identical to the retained reference interpreter at
// every seed — docs/ENGINE.md gives the design and the exactness
// argument.
//
// Single runs are point estimates of a single trace draw. RunReplicated
// re-draws the workload at N derived seeds and reports mean ±95%
// confidence intervals per metric (Student-t, internal/stats), which is
// what makes a "STREX beats Base" claim statistically defensible:
//
//	rr, _ := strex.RunReplicated(strex.DefaultConfig(4), "TATP",
//	    strex.WorkloadOptions{Txns: 100, Seed: 1}, strex.SchedSTREX, 5, 0)
//	fmt.Printf("I-MPKI %.1f ±%.1f over %d seeds\n", rr.IMPKI.Mean, rr.IMPKI.CI95, rr.IMPKI.N)
//
// Both CLIs expose the same replication as -seeds N (aggregate tables
// next to the classic seed-0 ones); docs/STATS.md covers the estimator
// choices, the confidence-interval formula and how replicates are
// addressed in the run cache.
//
// Closed-loop runs (everything above) make every transaction eligible
// at cycle 0 and measure throughput. RunOpenLoop instead offers
// transactions at clocks drawn from a seed-deterministic arrival
// process (fixed, poisson, mmpp/bursty, diurnal — internal/arrival)
// and reports the latencies an open-loop client observes: per-tenant
// queue-wait and sojourn p50/p99/p999. Multiple TenantSpec entries
// share the machine as a multi-tenant mix with disjoint address
// spaces; an infinite-rate single tenant reproduces Run bit for bit
// (the differential gate in the tests pins it). The CLIs expose the
// same knobs as -arrival/-rate/-tenants, and the openloop experiment
// family publishes the curated scenario grid — see docs/WORKLOADS.md
// and docs/RUNNING.md.
//
// For long-lived use, cmd/strexd serves the whole stack over HTTP/JSON
// (internal/service): jobs from every tenant share one bounded runner
// pool (NewPool/Pool.RunDrawsCtx, the context-aware facade over
// internal/runner) and one warm cache, identical in-flight submissions
// coalesce into a single run, and admission is round-robin over
// clients with 429 backpressure past the queue bound — all safe
// because a run is a pure function of its spec. cmd/strexload drives
// and verifies a running daemon; docs/SERVICE.md has the API
// specification and operational notes.
//
// Grids also shard across processes and machines: the same purity
// argument lets a coordinator (internal/shard, ConnectFleet +
// RunManySharded/RunManyDrawsSharded here) partition a grid by cache
// key over HTTP workers (-worker mode of cmd/experiments and
// cmd/strexsim), work-steal stragglers, and resubmit after worker
// death, with stdout and BENCH output byte-identical to the serial
// run at any fleet size — docs/SHARDING.md has the topology, wire
// surface and failure model.
package strex
