package strex

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Section 5), plus ablations for the modelling
// choices docs/MODEL.md calls out. Each bench iteration regenerates the
// experiment at bench scale (smaller than cmd/experiments' default so
// `go test -bench=.` completes in minutes); cmd/experiments produces
// the full-scale numbers recorded in EXPERIMENTS.md.
//
// Benchmarks report, besides ns/op, the experiment's headline metric as
// custom units (I-MPKI, relative throughput, ...) via b.ReportMetric.

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"strex/internal/bench"
	"strex/internal/core"
	"strex/internal/experiments"
	"strex/internal/prefetch"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/smt"
	"strex/internal/tpcc"
	"strex/internal/workload"
)

// wlSet unwraps the façade for benches that drive internal/sim directly.
func wlSet(w *Workload) *workload.Set { return w.content() }

func benchSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Options{Txns: 40, Seed: 42, Cores: []int{2, 4}})
}

// BenchmarkFigure2Overlap regenerates the temporal-overlap analysis
// (Figure 2): 16 same-type transactions on 16 32KB L1-Is.
func BenchmarkFigure2Overlap(b *testing.B) {
	w := tpcc.New(tpcc.Config{Warehouses: 1, Seed: 42})
	set := w.GenerateTyped(1 /* NewOrder */, 16)
	b.ResetTimer()
	var last experiments.OverlapSummary
	for i := 0; i < b.N; i++ {
		last = experiments.Summarize(experiments.OverlapSeries(set, 32, 100))
	}
	b.ReportMetric(last.AtLeast5*100, "%blocks>=5caches")
	b.ReportMetric(last.Single*100, "%blocks-single")
}

// BenchmarkFigure4Identical regenerates the identical-transaction
// potential study (Figure 4) for one representative type.
func BenchmarkFigure4Identical(b *testing.B) {
	s := benchSuite()
	var impki float64
	for i := 0; i < b.N; i++ {
		tab := s.Figure4()
		impki = parseFloatCell(b, tab.Rows[1][3]) // NewOrder CTX-Identical
	}
	b.ReportMetric(impki, "CTX-I-MPKI")
}

// BenchmarkFigure5MPKI regenerates the L1 miss-rate grid (Figure 5).
func BenchmarkFigure5MPKI(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.Figure5()
	}
}

// BenchmarkFigure6Throughput regenerates the relative-throughput grid
// (Figure 6) including next-line, PIF, SLICC and the hybrid.
func BenchmarkFigure6Throughput(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.Figure6()
	}
}

// BenchmarkFigure7Latency regenerates the latency distributions
// (Figure 7).
func BenchmarkFigure7Latency(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.Figure7()
	}
}

// BenchmarkFigure8TeamSize regenerates the team-size throughput sweep
// (Figure 8).
func BenchmarkFigure8TeamSize(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.Figure8()
	}
}

// BenchmarkFigure9Replacement regenerates the replacement-policy study
// (Figure 9).
func BenchmarkFigure9Replacement(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.Figure9()
	}
}

// BenchmarkTable3FPTable regenerates the footprint table (Table 3).
func BenchmarkTable3FPTable(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.Table3()
	}
}

// --- ablations -----------------------------------------------------------

func benchWorkload(b *testing.B, txns int) *Workload {
	b.Helper()
	w, err := TPCC(TPCCConfig{Warehouses: 1, Txns: txns, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkAblationSwitchCost sweeps the context-switch cost (the paper
// assumes contexts save/restore through the local L2 slice but does not
// pin a number; docs/MODEL.md).
func BenchmarkAblationSwitchCost(b *testing.B) {
	w := benchWorkload(b, 40)
	for _, cost := range []int{0, 160, 1000} {
		cost := cost
		b.Run(fmtInt("cost", cost), func(b *testing.B) {
			var tpm float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(2)
				cfg.Mem.Lat.SwitchCost = cost
				res := sim.New(cfg, wlSet(w), sched.NewStrex()).Run()
				tpm = res.Stats.SteadyThroughput(w.Txns(), 2)
			}
			b.ReportMetric(tpm, "txn/Mcycle")
		})
	}
}

// BenchmarkAblationPoolWindow sweeps the transaction pool window (the
// paper fixes 30; team quality degrades when the formation unit sees
// fewer candidates).
func BenchmarkAblationPoolWindow(b *testing.B) {
	w := benchWorkload(b, 60)
	for _, window := range []int{5, 15, 30, 60} {
		window := window
		b.Run(fmtInt("window", window), func(b *testing.B) {
			var impki float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(2)
				cfg.PoolWindow = window
				s := sched.NewStrexSized(core.FormationConfig{Window: window, TeamSize: 10})
				res := sim.New(cfg, wlSet(w), s).Run()
				impki = res.Stats.IMPKI()
			}
			b.ReportMetric(impki, "I-MPKI")
		})
	}
}

// BenchmarkAblationSliccMigrationCost sweeps SLICC's migration cost to
// show the low-core-count cliff is structural, not a cost artifact.
func BenchmarkAblationSliccMigrationCost(b *testing.B) {
	w := benchWorkload(b, 40)
	for _, cost := range []int{0, 320, 1000} {
		cost := cost
		b.Run(fmtInt("cost", cost), func(b *testing.B) {
			var tpm float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(2)
				cfg.Mem.Lat.MigrateCost = cost
				res := sim.New(cfg, wlSet(w), sched.NewSlicc()).Run()
				tpm = res.Stats.SteadyThroughput(w.Txns(), 2)
			}
			b.ReportMetric(tpm, "txn/Mcycle")
		})
	}
}

// BenchmarkAblationL1ISize sweeps the L1-I capacity: STREX's benefit
// shrinks as the cache approaches the transaction footprint.
func BenchmarkAblationL1ISize(b *testing.B) {
	w := benchWorkload(b, 40)
	for _, kb := range []int{16, 32, 64, 128} {
		kb := kb
		b.Run(fmtInt("l1i-kb", kb), func(b *testing.B) {
			var impki float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(2)
				cfg.L1IKB = kb
				res := sim.New(cfg, wlSet(w), sched.NewStrex()).Run()
				impki = res.Stats.IMPKI()
			}
			b.ReportMetric(impki, "I-MPKI")
		})
	}
}

// BenchmarkExtensionSMT runs the Section 4.4.4 future-work study:
// single-thread vs 2-way SMT with arrival vs stratified co-scheduling.
func BenchmarkExtensionSMT(b *testing.B) {
	w := tpcc.New(tpcc.Config{Warehouses: 1, Seed: 42})
	set := w.Generate(24)
	var single, arrival, strat smt.Result
	for i := 0; i < b.N; i++ {
		single, arrival, strat = smt.Compare(smt.DefaultConfig(2), set)
	}
	b.ReportMetric(single.IMPKI, "1T-I-MPKI")
	b.ReportMetric(arrival.IMPKI, "SMT2-I-MPKI")
	b.ReportMetric(strat.IMPKI, "SMT2strat-I-MPKI")
}

// BenchmarkExtensionStrexPlusPrefetch combines STREX with the next-line
// prefetcher — the Section 4.4.3 discussion item ("PIF could reduce
// execution time for the lead transaction... when used in conjunction
// with STREX"); next-line is the cheap stand-in.
func BenchmarkExtensionStrexPlusPrefetch(b *testing.B) {
	w := benchWorkload(b, 40)
	var alone, combined float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(2)
		alone = sim.New(cfg, wlSet(w), sched.NewStrex()).Run().Stats.SteadyThroughput(w.Txns(), 2)
		cfg = sim.DefaultConfig(2)
		cfg.Prefetcher = prefetch.NextLine
		combined = sim.New(cfg, wlSet(w), sched.NewStrex()).Run().Stats.SteadyThroughput(w.Txns(), 2)
	}
	b.ReportMetric(alone, "STREX-txn/Mcycle")
	b.ReportMetric(combined, "STREX+NL-txn/Mcycle")
}

// BenchmarkEngineThroughput measures raw simulator speed (entries/s) —
// a regression canary for the event loop.
func BenchmarkEngineThroughput(b *testing.B) {
	w := benchWorkload(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.New(sim.DefaultConfig(2), wlSet(w), sched.NewBaseline()).Run()
		b.SetBytes(int64(res.Stats.Instrs))
	}
}

// --- engine hot-loop microbenchmarks -------------------------------------
//
// These track the event-driven core's speed directly (docs/ENGINE.md):
// entries/sec is the simulator's native unit of work, comparable across
// schedulers and over time. CI runs them at -benchtime=1x as a smoke
// pass and TestBenchSimJSON records the same measurements (plus the
// cold-suite wall clock) to BENCH_sim.json for the perf trajectory.

func setEntries(w *Workload) uint64 {
	var entries uint64
	for _, tx := range wlSet(w).Txns {
		entries += uint64(tx.Trace.Len())
	}
	return entries
}

func engineBenchScheds(w *Workload, cores int) []struct {
	name string
	mk   func() sim.Scheduler
} {
	bl := sched.NewBaseline() // stateless: one instance may be re-bound across runs
	return []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"Base", func() sim.Scheduler { return bl }},
		{"STREX", func() sim.Scheduler { return sched.NewStrex() }},
		{"SLICC", func() sim.Scheduler { return sched.NewSlicc() }},
		{"Hybrid", func() sim.Scheduler { return sched.NewHybrid(wlSet(w), cores, 3) }},
	}
}

// BenchmarkEngineHotLoop runs one full engine execution per iteration
// for each scheduler on the TPC-C mix, reporting trace entries/sec.
// The engine is pooled (Reset+Run steady state, as internal/runner uses
// it); schedulers are constructed fresh per run, per their contract,
// except the stateless Baseline, which is built once as in
// BenchmarkStepEntrySec. CI's allocation gate asserts that the Base run
// performs zero allocations.
func BenchmarkEngineHotLoop(b *testing.B) {
	w := benchWorkload(b, 40)
	entries := setEntries(w)
	const cores = 4
	for _, s := range engineBenchScheds(w, cores) {
		b.Run(s.name, func(b *testing.B) {
			cfg := sim.DefaultConfig(cores)
			eng := sim.New(cfg, wlSet(w), s.mk())
			eng.Run() // warm-up: size the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Reset(cfg, wlSet(w), s.mk())
				eng.Run()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(entries)*float64(b.N)/secs, "entries/s")
			}
		})
	}
}

// BenchmarkStepEntrySec isolates the stepper itself: a single-core
// Baseline run (no dispatch contention, no heap churn) — the tightest
// loop the engine has. One pooled engine is Reset and re-run per
// iteration; CI's allocation gate asserts this loop performs zero
// allocations per run (Baseline is stateless, so one instance may be
// re-bound across runs).
func BenchmarkStepEntrySec(b *testing.B) {
	w := benchWorkload(b, 40)
	entries := setEntries(w)
	cfg := sim.DefaultConfig(1)
	bl := sched.NewBaseline()
	eng := sim.New(cfg, wlSet(w), bl)
	eng.Run() // warm-up: size arenas and index pages
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset(cfg, wlSet(w), bl)
		eng.Run()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(entries)*float64(b.N)/secs, "entries/s")
	}
}

// TestBenchSimJSON records the engine perf baseline to the file named
// by STREX_BENCH_JSON (skipped when unset — it is a measurement, not a
// correctness test). CI publishes the result as BENCH_sim.json next to
// BENCH_suite.json so the entries/sec trajectory and the cold-suite
// wall clock are tracked per commit.
func TestBenchSimJSON(t *testing.T) {
	path := os.Getenv("STREX_BENCH_JSON")
	if path == "" {
		t.Skip("STREX_BENCH_JSON not set")
	}
	w, err := TPCC(TPCCConfig{Warehouses: 1, Txns: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	entries := setEntries(w)
	const cores = 4

	type record struct {
		Workload      string             `json:"workload"`
		Txns          int                `json:"txns"`
		Cores         int                `json:"cores"`
		TraceEntries  uint64             `json:"trace_entries"`
		EntriesPerSec map[string]float64 `json:"entries_per_sec"`
		SuiteColdSecs float64            `json:"suite_cold_secs"`
		SuiteScale    string             `json:"suite_scale"`
	}
	rec := record{
		Workload: "tpcc", Txns: 40, Cores: cores, TraceEntries: entries,
		EntriesPerSec: map[string]float64{},
		SuiteScale:    "txns=24 cores=2,4 figs=fig5+sweep+smoke serial",
	}
	for _, s := range engineBenchScheds(w, cores) {
		cfg := sim.DefaultConfig(cores)
		eng := sim.New(cfg, wlSet(w), s.mk())
		eng.Run() // warm-up: size the arenas
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Reset(cfg, wlSet(w), s.mk())
				eng.Run()
			}
		})
		if secs := res.T.Seconds(); secs > 0 {
			rec.EntriesPerSec[s.name] = float64(entries) * float64(res.N) / secs
		}
	}
	// Cold-suite wall clock: regenerate and re-simulate a fixed slice of
	// the experiment suite with no cache, serially, so the number is a
	// stable simulator-speed proxy rather than a parallelism measurement.
	start := time.Now()
	s := experiments.NewSuite(experiments.Options{Txns: 24, Seed: 42, Cores: []int{2, 4}, Parallel: 1})
	_ = s.Figure5()
	_ = s.FootprintSweep()
	_ = s.WorkloadSmoke()
	rec.SuiteColdSecs = time.Since(start).Seconds()

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", path, data)
}

// BenchmarkWorkloadGeneration measures trace-generation speed for
// every registered workload (population cost excluded; one sub-
// benchmark per registry entry, so new benchmarks are covered
// automatically).
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, info := range bench.Workloads() {
		b.Run(info.Name, func(b *testing.B) {
			g, err := bench.Build(info.Name, bench.Options{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Generate(10)
			}
		})
	}
}

// BenchmarkWorkloadPopulate measures database construction speed per
// registered workload (schema + initial rows; the one-time cost a
// fresh generator pays before its first Generate).
func BenchmarkWorkloadPopulate(b *testing.B) {
	for _, info := range bench.Workloads() {
		b.Run(info.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Build(info.Name, bench.Options{Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFootprintSweep regenerates the synthetic footprint-
// sensitivity sweep (the registry-era extension experiment).
func BenchmarkFootprintSweep(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.FootprintSweep()
	}
}

// BenchmarkWorkloadSmoke regenerates the per-registered-workload
// Base-vs-STREX comparison table.
func BenchmarkWorkloadSmoke(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		_ = s.WorkloadSmoke()
	}
}

// --- small helpers ---------------------------------------------------------

func fmtInt(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func parseFloatCell(b *testing.B, s string) float64 {
	b.Helper()
	var v float64
	var frac, div float64 = 0, 1
	seenDot := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '.':
			seenDot = true
		case c >= '0' && c <= '9':
			if seenDot {
				div *= 10
				frac = frac*10 + float64(c-'0')
			} else {
				v = v*10 + float64(c-'0')
			}
		default:
			b.Fatalf("bad float cell %q", s)
		}
	}
	return v + frac/div
}
