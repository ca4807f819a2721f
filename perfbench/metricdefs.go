package main

import "strconv"

// metricDef names one metric the benchmark prints. BENCHMARK.json at
// the checkout root lists the same metrics, with each end-to-end
// metric's regression bound; a test keeps the two lists equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"max_rss_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"sim_speedup_strex", "ratio", "higher"},
	{"sim_impki_ratio_strex", "ratio", "lower"},
	{"warm_job_ms_p50", "ms", "lower"},
	{"warm_job_ms_p90", "ms", "lower"},
}

// Scheduler and cell classes the per-layer sim and cache metrics are
// broken down by.
var (
	gridScheds = []string{"base", "strex", "slicc", "hybrid", "nextline", "pif"}
	gridCores  = []int{2, 4}
	soloScheds = []string{"base", "strex"}
	soloL1IKB  = []int{16, 32, 64, 128}
	perLayer   = buildPerLayer()
)

// perLayer are the metrics a traced run prints, on every workload; a
// layer that does no work on a workload reports 0 there.
func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"bench.gen_s", "s", "lower"},
		{"bench.mentries_per_s", "Mentries/s", "higher"},
		{"bench.sets", "count", "lower"},
		{"trace.compile_s", "s", "lower"},
		{"trace.segments", "count", "lower"},
		{"trace.seg_instr_share", "ratio", "higher"},
		{"sim.run_s", "s", "lower"},
		{"sim.runs", "count", "lower"},
		{"sim.ns_per_entry", "ns", "lower"},
	}
	for _, s := range gridScheds {
		for _, c := range gridCores {
			defs = append(defs, metricDef{"sim.ns_per_entry." + s + ".c" + strconv.Itoa(c), "ns", "lower"})
		}
	}
	for _, s := range gridScheds {
		defs = append(defs, metricDef{"sim.allocs_per_run." + s, "count", "lower"})
	}
	for _, s := range soloScheds {
		for _, kb := range soloL1IKB {
			defs = append(defs, metricDef{"sim.ns_per_entry." + s + ".l1i" + strconv.Itoa(kb), "ns", "lower"})
		}
		defs = append(defs, metricDef{"sim.ns_per_entry." + s + ".lip", "ns", "lower"})
	}
	for _, s := range gridScheds {
		defs = append(defs, metricDef{"cache.l1i_mpki." + s, "mpki", "lower"})
	}
	for _, s := range gridScheds {
		defs = append(defs, metricDef{"cache.l1d_mpki." + s, "mpki", "lower"})
	}
	defs = append(defs,
		metricDef{"sched.switches_per_kinstr.strex", "1/kinstr", "lower"},
		metricDef{"sched.migrations_per_kinstr.slicc", "1/kinstr", "lower"},
		metricDef{"runner.submitted", "count", "lower"},
		metricDef{"runner.executed", "count", "lower"},
		metricDef{"runner.dedup_ratio", "ratio", "higher"},
		metricDef{"runner.overhead_s", "s", "lower"},
		metricDef{"experiments.fig5_s", "s", "lower"},
		metricDef{"experiments.fig6_s", "s", "lower"},
		metricDef{"experiments.openloop_s", "s", "lower"},
		metricDef{"strex.overhead_s", "s", "lower"},
		metricDef{"runcache.trace_hits", "count", "higher"},
		metricDef{"runcache.result_hits", "count", "higher"},
		metricDef{"runcache.misses", "count", "lower"},
		metricDef{"runcache.hit_ratio", "ratio", "higher"},
		metricDef{"runcache.read_mb", "MB", "lower"},
		metricDef{"runcache.written_mb", "MB", "lower"},
		metricDef{"service.submit_ms_p50", "ms", "lower"},
		metricDef{"service.queue_wait_ms_p50", "ms", "lower"},
		metricDef{"service.run_ms_p50", "ms", "lower"},
		metricDef{"service.hot_ms_p50", "ms", "lower"},
		metricDef{"service.memo_hits", "count", "higher"},
		metricDef{"service.coalesced", "count", "higher"},
		metricDef{"service.polls_per_job", "count", "lower"},
		metricDef{"service.rejected", "count", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
	)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"self_s." + l, "s", "lower"})
	}
	defs = append(defs,
		metricDef{"self_s.total", "s", "lower"},
		metricDef{"harness.traced_wall_s", "s", "lower"},
		metricDef{"harness.trace_overhead", "ratio", "lower"},
		metricDef{"harness.warm_job_samples", "count", "higher"},
	)
	return defs
}

// spanLayers are the layers spans are recorded for; "harness" is the
// benchmark's own code between calls into the program.
var spanLayers = []string{"harness", "bench", "experiments", "sim", "trace", "strex", "service"}
