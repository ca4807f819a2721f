// Command strexsim runs one or more simulation configurations and prints
// miss rates, throughput and latency summaries.
//
// -workload accepts any name from the workload registry
// (strex.Workloads; -list prints it): tpcc1, tpcc10, tpce, tatp, voter,
// smallbank, mapreduce, synth. -scale adjusts the benchmark-specific
// size knob and the -synth-* flags dial the synthetic generator.
//
// -sched and -cores accept comma-separated lists; the cross product of
// the two runs as a grid, fanned out over -parallel worker goroutines
// (results are deterministic and ordered, so -parallel only changes
// wall-clock). A single-cell grid prints the detailed summary; a larger
// grid prints one comparison row per run.
//
// Workload generation can be cached (-cache-dir reuses generated
// traces across invocations) or bypassed entirely: -save-trace writes
// the generated workload to a .strextrace artifact and -load-trace
// replays one (see docs/TRACES.md).
//
// -seeds N runs every grid cell at N seed-replicates — replicate 0 at
// the verbatim -seed, the rest at derived seeds with fresh trace draws
// — and prints mean ±95% CI per metric instead of point estimates (see
// docs/STATS.md). The N draws are generated once and shared by every
// cell; -cache-dir additionally persists them across invocations.
//
// -timeline FILE records the run as a quantum-level Chrome trace-event
// timeline loadable at https://ui.perfetto.dev (single cell, -seeds 1;
// see docs/OBSERVABILITY.md for the event schema).
//
// -worker turns the binary into a sharding worker serving runs over
// HTTP (it announces "listening on http://..." on stderr); -workers
// host:port,... fans a grid out across such workers. Results are
// byte-identical to local execution at any fleet size (see
// docs/SHARDING.md).
//
// Usage:
//
//	strexsim -workload tpcc10 -cores 8 -sched strex -team 10
//	strexsim -workload tatp -cores 2,4,8,16 -sched base,strex,slicc -parallel 8
//	strexsim -workload tatp -cores 2,8 -sched base,strex -seeds 5
//	strexsim -workload synth -synth-units 8 -synth-types 2 -sched base,strex
//	strexsim -workload tpcc10 -save-trace tpcc10.strextrace -sched base
//	strexsim -load-trace tpcc10.strextrace -sched strex,slicc -cores 4,8
//	strexsim -workload tatp -cores 4 -sched strex -timeline run.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"strex"
	"strex/internal/memsys"
	"strex/internal/obs"
	"strex/internal/profiling"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/service"
	"strex/internal/tracefile"
)

// stderrIsTerminal reports whether stderr is a character device (a
// terminal that can render \r-overwrite progress lines).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func main() {
	wl := flag.String("workload", "tpcc1", "registry workload name or alias (see -list)")
	coresList := flag.String("cores", "4", "core counts, comma-separated (e.g. 4 or 2,4,8)")
	schedList := flag.String("sched", "strex", "schedulers, comma-separated: base, strex, slicc, hybrid")
	txns := flag.Int("txns", 120, "transactions to run")
	team := flag.Int("team", 10, "STREX team size")
	policy := flag.String("policy", "LRU", "L1-I replacement policy")
	pf := flag.String("prefetch", "", "instruction prefetcher: empty, next-line, pif")
	seed := flag.Uint64("seed", 1, "workload seed")
	scale := flag.Int("scale", 0, "benchmark-specific scale knob (0 = workload default)")
	synthUnits := flag.Float64("synth-units", 0, "synth: per-type footprint in 32KB L1-I units (0 = default 4)")
	synthTypes := flag.Int("synth-types", 0, "synth: transaction type count (0 = default 4)")
	synthReuse := flag.Float64("synth-reuse", 0, "synth: shared-data reuse fraction (0 = default 0.5)")
	arrivalProc := flag.String("arrival", "", "open-loop arrival process: fixed, poisson, mmpp/bursty, diurnal (empty = closed loop; see docs/WORKLOADS.md)")
	rate := flag.Float64("rate", 0, "open-loop offered load per tenant in txns/Mcycle (<= 0 = infinite rate)")
	tenantsList := flag.String("tenants", "", "comma-separated additional workloads sharing the machine as open-loop tenants")
	seedsN := flag.Int("seeds", 1, "seed-replicates per configuration (N > 1 prints mean ±95% CI rows; see docs/STATS.md)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs for grids (1 = serial)")
	quiet := flag.Bool("quiet", false, "suppress the progress line on stderr")
	list := flag.Bool("list", false, "list registered workloads and exit")
	cacheDir := flag.String("cache-dir", "", "trace cache directory: reuse generated workloads across invocations (see docs/TRACES.md)")
	noCache := flag.Bool("no-cache", false, "disable the trace cache even when -cache-dir is set")
	saveTrace := flag.String("save-trace", "", "write the workload to this .strextrace file before running")
	loadTrace := flag.String("load-trace", "", "replay this .strextrace file instead of generating (-workload/-txns/-scale ignored)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	timeline := flag.String("timeline", "", "write a Chrome trace-event run timeline to this file (single cell, -seeds 1; open in Perfetto)")
	timelineEvents := flag.Int("timeline-events", 1<<15, "run-timeline ring capacity (earliest events kept on overflow)")
	workerMode := flag.Bool("worker", false, "serve simulation runs for a sharding coordinator instead of running a grid (see docs/SHARDING.md)")
	listen := flag.String("listen", "127.0.0.1:0", "worker mode: listen address (port 0 picks an ephemeral port)")
	workersList := flag.String("workers", "", "comma-separated worker base URLs to shard grids across (host:port, from each worker's 'listening on' line)")
	logLevel := flag.String("log-level", "warn", "worker/coordinator log level: debug, info, warn, error")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: queued runs are skipped,
	// in-flight ones stop at the engine's next poll boundary, and worker
	// mode drains and exits.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	prof, profErr := profiling.Start(*cpuprofile, *memprofile)
	if profErr != nil {
		fmt.Fprintln(os.Stderr, "strexsim:", profErr)
		os.Exit(1)
	}
	// Success paths all return from main, so the heap profile is written
	// exactly once; error paths go through fail, which only stops the
	// CPU profile (keeping the partial profile of the failing run).
	defer func() {
		if err := prof.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, "strexsim:", err)
			os.Exit(1)
		}
	}()

	fail := func(err error) {
		prof.StopCPU()
		fmt.Fprintln(os.Stderr, "strexsim:", err)
		os.Exit(1)
	}

	if *list {
		printWorkloads()
		return
	}

	if *workerMode {
		var cache *runcache.Cache
		if *cacheDir != "" && !*noCache {
			var err error
			if cache, err = runcache.Open(*cacheDir); err != nil {
				fail(err)
			}
		}
		err := service.ServeWorker(ctx, *listen, service.WorkerConfig{
			Parallel: *parallel, Cache: cache, Log: obs.NewLogger(os.Stderr, "text", *logLevel),
		}, func(url string) {
			// Plain line, greppable: harnesses parse the URL out of it to
			// hand to a coordinator's -workers flag.
			fmt.Fprintf(os.Stderr, "strexsim: worker listening on %s\n", url)
		})
		if err != nil {
			fail(err)
		}
		return
	}

	var fleet *strex.Fleet
	if *workersList != "" {
		var err error
		fleet, err = strex.ConnectFleet(strings.Split(*workersList, ","), obs.NewLogger(os.Stderr, "text", *logLevel))
		if err != nil {
			fail(err)
		}
		defer fleet.Close()
	}

	if *arrivalProc != "" || *tenantsList != "" {
		// Open-loop mode: transactions arrive at generated clocks instead
		// of all at cycle 0, and the report is the latency distribution an
		// open-loop client observes. Single-draw by construction (the
		// arrival schedule is part of the scenario identity).
		if *seedsN > 1 {
			fail(fmt.Errorf("-arrival reports per-draw latency quantiles; use -seeds 1"))
		}
		if *timeline != "" || *loadTrace != "" || *saveTrace != "" {
			fail(fmt.Errorf("-arrival cannot be combined with -timeline/-load-trace/-save-trace"))
		}
		cores, err := parseInts(*coresList)
		if err != nil {
			fail(err)
		}
		kinds, err := parseScheds(*schedList)
		if err != nil {
			fail(err)
		}
		wopts := strex.WorkloadOptions{
			Txns:                *txns,
			Seed:                *seed,
			Scale:               *scale,
			SynthFootprintUnits: *synthUnits,
			SynthTypes:          *synthTypes,
			SynthDataReuse:      *synthReuse,
			CacheDir:            *cacheDir,
			NoCache:             *noCache,
		}
		runOpenLoopGrid(*wl, *tenantsList, *arrivalProc, *rate, wopts, cores, kinds, *team, *policy, *pf, *seed, fail)
		return
	}

	if *seedsN > 1 {
		// Replicated mode: every grid cell is run at N derived seeds
		// (fresh trace draws) and reported as mean ±95% CI. Fixed
		// traces can't be redrawn, so the trace flags are refused.
		if *timeline != "" {
			fail(fmt.Errorf("-timeline records one engine run; use -seeds 1"))
		}
		if *loadTrace != "" {
			fail(fmt.Errorf("-seeds needs generated workloads; it cannot replicate a fixed -load-trace"))
		}
		if *saveTrace != "" {
			fail(fmt.Errorf("-save-trace saves a single trace draw; use -seeds 1 (replicate 0 is that exact draw)"))
		}
		cores, err := parseInts(*coresList)
		if err != nil {
			fail(err)
		}
		kinds, err := parseScheds(*schedList)
		if err != nil {
			fail(err)
		}
		wopts := strex.WorkloadOptions{
			Txns:                *txns,
			Seed:                *seed,
			Scale:               *scale,
			SynthFootprintUnits: *synthUnits,
			SynthTypes:          *synthTypes,
			SynthDataReuse:      *synthReuse,
			CacheDir:            *cacheDir,
			NoCache:             *noCache,
		}
		runReplicatedGrid(ctx, fleet, *wl, wopts, cores, kinds, *seedsN, *team, *policy, *pf, *seed, *parallel, *quiet, fail)
		return
	}

	var w *strex.Workload
	var err error
	if *loadTrace != "" {
		w, err = strex.LoadWorkload(*loadTrace)
		// An old-format file is a usage problem, not corruption: say so
		// instead of surfacing a bare decode failure.
		if errors.Is(err, tracefile.ErrVersion) {
			fail(fmt.Errorf("%s: %v\n  (old trace files cannot be upgraded in place; rerun with -save-trace to produce a v%d file)",
				*loadTrace, err, tracefile.Version))
		}
	} else {
		w, err = strex.BuildWorkload(*wl, strex.WorkloadOptions{
			Txns:                *txns,
			Seed:                *seed,
			Scale:               *scale,
			SynthFootprintUnits: *synthUnits,
			SynthTypes:          *synthTypes,
			SynthDataReuse:      *synthReuse,
			CacheDir:            *cacheDir,
			NoCache:             *noCache,
		})
	}
	if err != nil {
		fail(err)
	}
	if *saveTrace != "" {
		if err := w.SaveTrace(*saveTrace); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "strexsim: saved %s (%d txns) to %s\n", w.Name(), w.Txns(), *saveTrace)
	}
	cores, err := parseInts(*coresList)
	if err != nil {
		fail(err)
	}
	kinds, err := parseScheds(*schedList)
	if err != nil {
		fail(err)
	}

	workers := runner.ResolveWorkers(*parallel)

	if *timeline != "" {
		if len(cores) != 1 || len(kinds) != 1 {
			fail(fmt.Errorf("-timeline records one engine run; pick a single -cores value and a single -sched"))
		}
		cfg := strex.DefaultConfig(cores[0])
		cfg.TeamSize = *team
		cfg.Policy = *policy
		cfg.Prefetcher = *pf
		cfg.Seed = *seed
		res, tl, err := strex.RunTraced(cfg, w, kinds[0], *timelineEvents)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*timeline)
		if err != nil {
			fail(err)
		}
		if err := tl.WriteChrome(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		if dropped := tl.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "strexsim: timeline ring full: kept the first %d events, dropped %d (raise -timeline-events)\n",
				tl.Len(), dropped)
		}
		fmt.Fprintf(os.Stderr, "strexsim: wrote %d timeline events to %s (open at https://ui.perfetto.dev)\n",
			tl.Len(), *timeline)
		printDetail(w, strex.RunSpec{Config: cfg, Sched: kinds[0]}, res, *policy, *pf)
		return
	}

	var specs []strex.RunSpec
	for _, c := range cores {
		for _, kind := range kinds {
			cfg := strex.DefaultConfig(c)
			cfg.TeamSize = *team
			cfg.Policy = *policy
			cfg.Prefetcher = *pf
			cfg.Seed = *seed
			specs = append(specs, strex.RunSpec{Config: cfg, Sched: kind})
		}
	}

	progress := func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r\x1b[K  %d/%d runs", done, total)
	}
	if len(specs) == 1 || *quiet || !stderrIsTerminal() {
		progress = nil
	}
	results, err := strex.RunManySharded(w, specs, strex.GridOptions{
		Parallel: *parallel, Ctx: ctx, Fleet: fleet, OnProgress: progress,
	})
	if err != nil {
		fail(err)
	}
	if progress != nil {
		fmt.Fprintf(os.Stderr, "\r\x1b[K")
	}

	if len(specs) == 1 {
		printDetail(w, specs[0], results[0], *policy, *pf)
		return
	}
	fmt.Printf("workload %s (%d txns, %d Minstr), %s L1-I policy, prefetch=%q, %d workers\n\n",
		w.Name(), w.Txns(), w.Instrs()/1e6, *policy, *pf, workers)
	fmt.Printf("%-6s  %-22s  %10s  %8s  %8s  %12s  %10s\n",
		"cores", "scheduler", "Mcycles", "I-MPKI", "D-MPKI", "txn/Mcycle", "mean Mcyc")
	for i, res := range results {
		fmt.Printf("%-6d  %-22s  %10.1f  %8.2f  %8.2f  %12.2f  %10.2f\n",
			specs[i].Config.Cores, res.Scheduler, float64(res.Cycles)/1e6,
			res.IMPKI, res.DMPKI, res.ThroughputTPM, res.MeanLatency/1e6)
	}
}

func printDetail(w *strex.Workload, spec strex.RunSpec, res strex.Result, policy, pf string) {
	fmt.Printf("workload   %s (%d txns, %d Minstr)\n", w.Name(), w.Txns(), w.Instrs()/1e6)
	fmt.Printf("system     %d cores, %s L1-I policy, prefetch=%q\n", spec.Config.Cores, policy, pf)
	fmt.Printf("scheduler  %s\n", res.Scheduler)
	fmt.Printf("cycles     %d (busy %d)\n", res.Cycles, res.BusyCycles)
	fmt.Printf("I-MPKI     %.2f\n", res.IMPKI)
	fmt.Printf("D-MPKI     %.2f\n", res.DMPKI)
	fmt.Printf("throughput %.2f txn/Mcycle (steady-state)\n", res.ThroughputTPM)
	fmt.Printf("switches   %d   migrations %d\n", res.Switches, res.Migrations)
	lat := append([]uint64(nil), res.Latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		fmt.Printf("latency    mean %.2f Mcyc, p50 %.2f, p99 %.2f\n",
			res.MeanLatency/1e6,
			float64(lat[len(lat)/2])/1e6,
			float64(lat[len(lat)*99/100])/1e6)
	}
}

func parseScheds(list string) ([]strex.SchedulerKind, error) {
	var kinds []strex.SchedulerKind
	for _, name := range strings.Split(list, ",") {
		kind, err := strex.ParseScheduler(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, kind)
	}
	return kinds, nil
}

// runReplicatedGrid runs every (cores, scheduler) cell at n derived
// seeds and prints one mean ±95% CI row per cell. Workload content is
// independent of the grid axes, so the n trace draws are built exactly
// once (strex.ReplicateWorkloads) and the whole grid — every cell's
// every replicate — fans out over one worker pool (strex.RunManyDraws),
// keeping the non-replicated grid's cross-cell parallelism.
func runReplicatedGrid(ctx context.Context, fleet *strex.Fleet, wl string, wopts strex.WorkloadOptions,
	cores []int, kinds []strex.SchedulerKind,
	n, team int, policy, pf string, seed uint64, parallel int, quiet bool, fail func(error)) {
	workers := runner.ResolveWorkers(parallel)
	draws, err := strex.ReplicateWorkloads(wl, wopts, n)
	if err != nil {
		fail(err)
	}
	var specs []strex.RunSpec
	for _, c := range cores {
		for _, kind := range kinds {
			cfg := strex.DefaultConfig(c)
			cfg.TeamSize = team
			cfg.Policy = policy
			cfg.Prefetcher = pf
			cfg.Seed = seed
			specs = append(specs, strex.RunSpec{Config: cfg, Sched: kind})
		}
	}
	progress := func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r\x1b[K  %d/%d replicate runs", done, total)
	}
	if quiet || !stderrIsTerminal() {
		progress = nil
	}
	// A panicking replicate re-raises out of the batch after it drains
	// fully, and deterministically: the lowest-index panic wins no
	// matter the worker count or completion order (pinned by the
	// runner's TestBatchPanicDrainDeterministic). Surface it as one
	// clean, reproducible error line rather than a goroutine dump.
	results, err := func() (rs []*strex.ReplicatedResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("replicate run failed: %v", r)
			}
		}()
		return strex.RunManyDrawsSharded(draws, specs, strex.GridOptions{
			Parallel: parallel, Ctx: ctx, Fleet: fleet, OnProgress: progress,
		})
	}()
	if err != nil {
		fail(err)
	}
	if progress != nil {
		fmt.Fprintf(os.Stderr, "\r\x1b[K")
	}
	fmt.Printf("workload %s (%d txns/replicate), %d seed-replicates/config, %s L1-I policy, prefetch=%q, %d workers\n\n",
		draws[0].Name(), wopts.Txns, n, policy, pf, workers)
	fmt.Printf("%-6s  %-22s  %16s  %16s  %18s  %16s\n",
		"cores", "scheduler", "I-MPKI", "D-MPKI", "txn/Mcycle", "mean Mcyc")
	for i, rr := range results {
		lat := rr.MeanLatency
		lat.Mean /= 1e6
		lat.CI95 /= 1e6
		fmt.Printf("%-6d  %-22s  %16s  %16s  %18s  %16s\n",
			specs[i].Config.Cores, rr.Results[0].Scheduler,
			rr.IMPKI.Format(2), rr.DMPKI.Format(2), rr.Throughput.Format(2), lat.Format(2))
	}
}

// runOpenLoopGrid runs the (cores × scheduler) grid open-loop: the
// primary workload plus any -tenants share the machine, each offered
// at -rate under the -arrival process, and every cell reports
// queue-wait and sojourn quantiles next to delivered throughput. All
// cells see identical arrival schedules, so differences are scheduler
// effects.
func runOpenLoopGrid(wl, tenantsCSV, process string, rate float64, wopts strex.WorkloadOptions,
	cores []int, kinds []strex.SchedulerKind, team int, policy, pf string, seed uint64, fail func(error)) {
	names := []string{wl}
	for _, t := range strings.Split(tenantsCSV, ",") {
		if t = strings.TrimSpace(t); t != "" {
			names = append(names, t)
		}
	}
	tenants := make([]strex.TenantSpec, len(names))
	for i, name := range names {
		tenants[i] = strex.TenantSpec{
			Workload: name,
			Options:  wopts,
			Arrival:  strex.ArrivalSpec{Process: process, Rate: rate},
		}
	}
	offered := "inf"
	if rate > 0 {
		offered = fmt.Sprintf("%g/Mc", rate)
	}
	if process == "" {
		process = "poisson"
	}
	fmt.Printf("open loop: %s, %s arrivals at %s per tenant, %d txns/tenant\n\n",
		strings.Join(names, "+"), process, offered, wopts.Txns)
	fmt.Printf("%-6s  %-22s  %-9s  %10s  %12s  %12s  %12s  %12s\n",
		"cores", "scheduler", "tenant", "tput/Mc", "wait p99", "sojourn p50", "sojourn p99", "sojourn p999")
	for _, c := range cores {
		for _, kind := range kinds {
			cfg := strex.DefaultConfig(c)
			cfg.TeamSize = team
			cfg.Policy = policy
			cfg.Prefetcher = pf
			cfg.Seed = seed
			res, err := strex.RunOpenLoop(cfg, tenants, kind)
			if err != nil {
				fail(err)
			}
			row := func(tenant string, tput string, tr strex.TenantResult) {
				fmt.Printf("%-6d  %-22s  %-9s  %10s  %12.0f  %12.0f  %12.0f  %12.0f\n",
					c, res.Scheduler, tenant, tput,
					tr.QueueWait.P99, tr.Sojourn.P50, tr.Sojourn.P99, tr.Sojourn.P999)
			}
			row("all", fmt.Sprintf("%.2f", res.ThroughputTPM), res.Overall)
			if len(res.Tenants) > 1 {
				for _, tr := range res.Tenants {
					row(tr.Name, "-", tr)
				}
			}
		}
	}
	fmt.Printf("\nlatencies in cycles (arrival -> first dispatch / completion), exact order-statistic quantiles\n")
}

func parseInts(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 || n > memsys.MaxCores {
			return nil, fmt.Errorf("bad core count %q (want 1 to %d)", s, memsys.MaxCores)
		}
		out = append(out, n)
	}
	return out, nil
}

// printWorkloads renders the registry for -list.
func printWorkloads() {
	fmt.Printf("%-10s  %-52s  %-5s  %s\n", "name", "aliases / scale", "types", "description")
	for _, info := range strex.Workloads() {
		fmt.Printf("%-10s  %-52s  %-5d  %s\n", info.Name,
			strings.Join(info.Aliases, ",")+" · "+info.ScaleHint,
			len(info.TxnTypes), info.Description)
	}
}
