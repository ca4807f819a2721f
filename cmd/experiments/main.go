// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them in paper order. The output of a
// full run is recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-txns N] [-seed S] [-seeds R] [-parallel P] [-only fig6]
//	            [-csv] [-cache-dir DIR] [-no-cache] [-json PATH]
//
// -txns scales the sample size per configuration (default 160
// transactions; the paper replays 1.2B instructions, see docs/MODEL.md).
// -seeds runs every fig5-fig9/sweep/smoke cell R times: replicate 0 at
// the verbatim master seed (its tables and cache keys are byte-identical
// to a -seeds 1 run) and the rest at derived seeds with fresh trace
// draws. Each replicated figure is followed by an aggregate table of
// mean ±95% CI cells, and -json records carry per-replicate arrays plus
// summary blocks (see docs/STATS.md).
// -parallel bounds how many simulator runs execute concurrently
// (default: GOMAXPROCS). Results are identical at every setting — the
// run executor preserves determinism and submission order — so -parallel
// is purely a wall-clock knob.
// -only runs a single experiment: table1, table2, table3, table4, fig2,
// fig4, fig5, fig6, fig7, fig8, fig9, sweep (the synthetic
// footprint-sensitivity sweep), smoke (one Baseline-vs-STREX
// comparison per registered workload; CI runs this at tiny scale) or
// openloop (open-loop arrival processes and a two-tenant mix, with
// queue-wait/sojourn latency quantiles; see docs/WORKLOADS.md).
//
// -cache-dir persists generated workload traces and completed run
// results in a content-addressed store: a warm rerun performs zero
// workload generations and replays memoized results, emitting
// byte-identical tables (tables go to stdout; progress, timings and the
// cache/generation summary go to stderr, so redirected stdout diffs
// clean across reruns). See docs/TRACES.md for the invalidation rules.
// -json writes machine-readable run summaries (workload, scheduler,
// cores, cycles, L1-I MPKI, throughput) for the experiments that record
// them (fig5, fig6, sweep, smoke, openloop) — CI publishes
// BENCH_suite.json and BENCH_openloop.json this way.
//
// -worker turns the binary into a sharding worker: it serves simulation
// runs over HTTP for a coordinator and announces "listening on
// http://..." on stderr. -workers host:port,... runs the suite as that
// coordinator, fanning runs across the fleet; stdout and -json output
// stay byte-identical to an in-process run (see docs/SHARDING.md).
// -shard-json additionally writes the merged report with per-worker
// dispatch counters and wall-clock timing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"strex/internal/bench"
	"strex/internal/experiments"
	"strex/internal/metrics"
	"strex/internal/obs"
	"strex/internal/profiling"
	"strex/internal/runcache"
	"strex/internal/service"
	"strex/internal/shard"
)

// stderrIsTerminal reports whether stderr is a character device (a
// terminal that can render \r-overwrite progress lines).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func main() {
	txns := flag.Int("txns", 160, "transactions per configuration (scale knob)")
	seed := flag.Uint64("seed", 42, "master seed")
	seeds := flag.Int("seeds", 1, "seed-replicates per cell (N > 1 adds mean ±95% CI aggregate tables)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulator runs (1 = serial)")
	only := flag.String("only", "", "run a single experiment (e.g. fig6)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	quiet := flag.Bool("quiet", false, "suppress the progress line on stderr")
	cacheDir := flag.String("cache-dir", "", "content-addressed cache for traces and run results (empty = off)")
	noCache := flag.Bool("no-cache", false, "disable the cache even when -cache-dir is set")
	jsonPath := flag.String("json", "", "write machine-readable run summaries (BENCH_*.json) to this path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	workerMode := flag.Bool("worker", false, "serve simulation runs for a sharding coordinator instead of running the suite (see docs/SHARDING.md)")
	listen := flag.String("listen", "127.0.0.1:0", "worker mode: listen address (port 0 picks an ephemeral port)")
	workersList := flag.String("workers", "", "comma-separated worker base URLs to shard the suite across (host:port, from each worker's 'listening on' line)")
	shardJSON := flag.String("shard-json", "", "write the sharded-run report (records + per-worker timing) to this path")
	logLevel := flag.String("log-level", "warn", "worker/coordinator log level: debug, info, warn, error")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: in-flight simulations stop
	// at the engine's next poll boundary, worker mode drains and exits.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	prof, profErr := profiling.Start(*cpuprofile, *memprofile)
	if profErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", profErr)
		os.Exit(1)
	}
	// The success path falls off the end of main, so the deferred Finish
	// writes the heap profile exactly once; fatal only stops the CPU
	// profile, keeping the partial profile of the failing run.
	defer func() {
		if err := prof.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}()

	fatal := func(err error) {
		prof.StopCPU()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	var cache *runcache.Cache
	if *cacheDir != "" && !*noCache {
		var err error
		if cache, err = runcache.Open(*cacheDir); err != nil {
			fatal(err)
		}
	}

	if *workerMode {
		log := obs.NewLogger(os.Stderr, "text", *logLevel)
		err := service.ServeWorker(ctx, *listen, service.WorkerConfig{
			Parallel: *parallel, Cache: cache, Log: log,
		}, func(url string) {
			// Plain line, greppable: the CI harness parses the URL out of
			// it to hand to the coordinator's -workers flag.
			fmt.Fprintf(os.Stderr, "experiments: worker listening on %s\n", url)
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	var coord *shard.Coordinator
	if *workersList != "" {
		var err error
		coord, err = shard.New(strings.Split(*workersList, ","), shard.Options{
			Log: obs.NewLogger(os.Stderr, "text", *logLevel),
		})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
	}

	// Progress uses \r-overwrite escapes, so it is suppressed when stderr
	// is not a terminal (redirected logs would fill with control bytes).
	showProgress := !*quiet && stderrIsTerminal()
	sopts := experiments.Options{
		Txns: *txns, Seed: *seed, Seeds: *seeds, Parallel: *parallel, Cache: cache, Ctx: ctx,
	}
	if coord != nil {
		// Assigned only when non-nil: a typed-nil RemoteRunner interface
		// would defeat the executor's remote == nil fast path.
		sopts.Remote = coord
	}
	suite := experiments.NewSuite(sopts)
	if showProgress {
		suite.Runner().OnProgress(func(done, submitted int, label string) {
			fmt.Fprintf(os.Stderr, "\r\x1b[K  %d/%d runs  %s", done, submitted, label)
		})
	}
	clearProgress := func() {
		if showProgress {
			fmt.Fprintf(os.Stderr, "\r\x1b[K")
		}
	}

	drivers := map[string]func() *metrics.Table{
		"table1":   suite.Table1,
		"table2":   suite.Table2,
		"table3":   suite.Table3,
		"table4":   suite.Table4,
		"fig2":     suite.Figure2,
		"fig4":     suite.Figure4,
		"fig5":     suite.Figure5,
		"fig6":     suite.Figure6,
		"fig7":     suite.Figure7,
		"fig8":     suite.Figure8,
		"fig9":     suite.Figure9,
		"sweep":    suite.FootprintSweep,
		"smoke":    suite.WorkloadSmoke,
		"openloop": suite.OpenLoop,
	}
	// Paper artifacts in paper order, then the registry-era extensions
	// (footprint sweep, all-workload smoke, open-loop arrivals).
	order := []string{"table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "table4", "sweep", "smoke", "openloop"}

	// Tables go to stdout; timings go to stderr so that stdout is
	// byte-identical across reruns (the cached-rerun equivalence check
	// in CI diffs it).
	// render prints one table in the selected format followed by a
	// blank separator line.
	render := func(tab *metrics.Table) error {
		if *csv {
			fmt.Printf("# %s\n", tab.Title)
			if err := tab.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			if err := tab.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
		return nil
	}

	run := func(name string) error {
		drv, ok := drivers[strings.ToLower(name)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(order, ", "))
		}
		start := time.Now()
		// Drivers panic on failed runs (a cancelled context surfaces its
		// ctx.Err through the future's Result); recover it into one clean
		// error line instead of a goroutine dump.
		tab, err := func() (t *metrics.Table, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%s failed: %v", name, r)
				}
			}()
			return drv(), nil
		}()
		clearProgress()
		if err != nil {
			return err
		}
		if err := render(tab); err != nil {
			return err
		}
		// Replicate aggregates (only produced at -seeds > 1) follow
		// their figure's classic table, so -seeds 1 stdout stays
		// byte-identical to the committed goldens.
		for _, agg := range suite.DrainAggregates() {
			if err := render(agg); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	wallStart := time.Now()
	finish := func() {
		// The generation count is the cache's observable contract (a warm
		// rerun must report 0); CI greps this line.
		fmt.Fprintf(os.Stderr, "experiments: workload generations: %d\n", bench.Generations())
		if coord != nil {
			wm := coord.Metrics()
			var dispatched, completed int64
			for _, m := range wm {
				fmt.Fprintf(os.Stderr, "experiments: shard %s: slots %d alive %v dispatched %d completed %d stolen %d speculated %d retried %d failures %d busy %v\n",
					m.URL, m.Slots, m.Alive, m.Dispatched, m.Completed, m.Stolen, m.Speculated, m.Retried, m.Failures,
					time.Duration(m.RunMillis)*time.Millisecond)
				dispatched += m.Dispatched
				completed += m.Completed
			}
			snap := coord.RPCLatency()
			fmt.Fprintf(os.Stderr, "experiments: shard totals: %d dispatched, %d completed, %d local fallbacks, rpc p50 %.1fms p99 %.1fms\n",
				dispatched, completed, coord.LocalFallbacks(), snap.Quantile(0.5)/1e6, snap.Quantile(0.99)/1e6)
			if *shardJSON != "" {
				workers := make([]metrics.WorkerTiming, len(wm))
				for i, m := range wm {
					workers[i] = metrics.WorkerTiming{
						URL: m.URL, Slots: m.Slots, Alive: m.Alive,
						Dispatched: m.Dispatched, Completed: m.Completed,
						Stolen: m.Stolen, Speculated: m.Speculated,
						Retried: m.Retried, Failures: m.Failures, RunMillis: m.RunMillis,
					}
				}
				report := metrics.BenchReport{
					TxnsPerCell: *txns, Seed: *seed, Seeds: *seeds, Records: suite.Records(),
					Shard: &metrics.ShardSummary{
						Workers:        workers,
						WallMillis:     time.Since(wallStart).Milliseconds(),
						LocalFallbacks: coord.LocalFallbacks(),
						RPCP50Ms:       snap.Quantile(0.5) / 1e6,
						RPCP99Ms:       snap.Quantile(0.99) / 1e6,
					},
				}
				if err := report.Save(*shardJSON); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "experiments: wrote sharded report (%d records, %d workers) to %s\n",
					len(report.Records), len(workers), *shardJSON)
			}
		}
		if cache.Enabled() {
			st := cache.Stats()
			fmt.Fprintf(os.Stderr, "experiments: cache %s: traces %d hit / %d miss, results %d hit / %d miss, %d B read / %d B written\n",
				cache.Dir(), st.TraceHits, st.TraceMisses, st.ResultHits, st.ResultMisses, st.BytesRead, st.BytesWritten)
		}
		if *jsonPath != "" {
			report := metrics.BenchReport{TxnsPerCell: *txns, Seed: *seed, Seeds: *seeds, Records: suite.Records()}
			if err := report.Save(*jsonPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote %d run records to %s\n", len(report.Records), *jsonPath)
		}
	}

	if *only != "" {
		if err := run(*only); err != nil {
			fatal(err)
		}
		finish()
		return
	}
	replicated := ""
	if *seeds > 1 {
		// Mentioned only when replicating, so -seeds 1 output stays
		// byte-identical to the pre-replication format.
		replicated = fmt.Sprintf(", %d seed-replicates/cell", *seeds)
	}
	fmt.Printf("STREX evaluation reproduction — %d txns/config, seed %d, %d workers%s\n\n",
		*txns, *seed, suite.Runner().Workers(), replicated)
	for _, name := range order {
		if err := run(name); err != nil {
			fatal(err)
		}
	}
	finish()
}
