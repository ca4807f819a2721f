package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"strex/internal/bench"
	"strex/internal/experiments"
	"strex/internal/metrics"
	"strex/internal/obs"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/workload"
)

// paper-grid reproduces the paper's Figures 5 and 6 plus the open-loop
// family through experiments.Suite: serial executor, no run cache, the
// cmd/experiments code path. Nearly all host time is the multi-core
// event loop.
var paperGridSpec = workloadSpec{
	name:  "paper-grid",
	why:   "Figures 5 and 6 and the open-loop family at 2 and 4 cores: the multi-core engine, schedulers and memsys; no solo path, cache or service",
	start: startPaperGrid,
}

// pgTxns is the suite's Options.Txns. Cells size themselves to at least
// two full STREX teams per core (20*cores transactions), so 40 is the
// floor: 40-transaction sets at 2 cores and 80 at 4.
const pgTxns = 40

// cellTxns mirrors the suite's cell sizing, so set-up generates exactly
// the sets the figures replay; the timed phase fails its check if a
// figure had to generate a set after all.
func cellTxns(cores int) int {
	if need := 2 * cores * 10; need > pgTxns {
		return need
	}
	return pgTxns
}

// olCores is the open-loop family's core count: 4, or the largest core
// count of the sweep when that is smaller.
func olCores() int {
	c := 4
	if big := gridCores[len(gridCores)-1]; big < c {
		c = big
	}
	return c
}

type paperGrid struct {
	cfg      runConfig
	suite    *experiments.Suite // set up for the next pass
	setupRec setupRecord
	last     *experiments.Suite // the last pass's suite, for the oracle check
	sets     map[string]*workload.Set
	passes   []pgPass
}

// setupRecord is what one set-up produced.
type setupRecord struct {
	gens    int64
	entries int64
	seconds float64
}

// pgPass is what one timed pass produced.
type pgPass struct {
	traced    bool
	setup     setupRecord
	digest    string
	records   []metrics.RunRecord
	fig5      *metrics.Table
	figS      map[string]float64
	submitted int
	runs      []runEvent
	derived   int
	timedGens int64
	compile   compileDelta
}

func startPaperGrid(cfg runConfig) (workloadRun, error) {
	return &paperGrid{cfg: cfg}, nil
}

func (pg *paperGrid) close() {}

func (pg *paperGrid) setup(tr *Tracer, parent int, cal *calibrator) error {
	pg.last = nil // let the previous pass's sets go before building new ones
	t0, c0 := time.Now(), cal.total
	s := experiments.NewSuite(experiments.Options{
		Txns: pgTxns, Seed: pg.cfg.seed, Cores: gridCores, Parallel: 1, Seeds: 1,
	})
	g0 := bench.Generations()
	pg.sets = map[string]*workload.Set{}
	var entries int64
	get := func(wl string, txns int) {
		key := fmt.Sprintf("%s/%d", wl, txns)
		id := tr.Begin(parent, "bench", "SetSized", key)
		t1 := time.Now()
		set := s.SetSized(wl, txns)
		tr.End(id)
		cal.after(time.Since(t1))
		if _, dup := pg.sets[key]; !dup {
			pg.sets[key] = set
			entries += int64(setEntries(set))
		}
	}
	for _, wl := range experiments.WorkloadNames() {
		for _, c := range gridCores {
			get(wl, cellTxns(c))
		}
	}
	olTxns := (cellTxns(olCores()) + 1) / 2
	get("TPC-C-1", olTxns)
	get("TATP", olTxns)
	pg.suite = s
	pg.setupRec = setupRecord{gens: bench.Generations() - g0, entries: entries, seconds: (time.Since(t0) - (cal.total - c0)).Seconds()}
	return nil
}

func (pg *paperGrid) pass(tr *Tracer, parent int, cal *calibrator) error {
	s := pg.suite
	pg.suite, pg.last = nil, s
	lg := &runLog{tr: tr, parent: parent, allocs: tr != nil, cal: cal}
	s.Runner().SetRunObserver(lg.onRun)
	s.Runner().OnProgress(lg.onProgress)
	p := pgPass{traced: tr != nil, setup: pg.setupRec, figS: map[string]float64{}}
	g0 := bench.Generations()
	c0 := readCompile()
	lg.reset()
	var tabs []*metrics.Table
	for _, fig := range []struct {
		name string
		fn   func() *metrics.Table
	}{{"fig5", s.Figure5}, {"fig6", s.Figure6}, {"openloop", s.OpenLoop}} {
		id := tr.Begin(parent, "experiments", fig.name, "")
		lg.setParent(id)
		t0, c0 := time.Now(), cal.total
		tab, err := callFigure(fig.fn)
		p.figS[fig.name] = (time.Since(t0) - (cal.total - c0)).Seconds() // calibration left out
		tr.End(id)
		if err != nil {
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		tabs = append(tabs, tab)
	}
	p.compile = readCompile().sub(c0)
	p.timedGens = bench.Generations() - g0
	p.fig5 = tabs[0]
	p.records = s.Records()
	p.submitted = s.Runner().Submitted()
	p.runs, p.derived = lg.result()
	var err error
	p.digest, err = digestOf(struct {
		Tables  []*metrics.Table
		Records []metrics.RunRecord
	}{tabs, p.records})
	if err != nil {
		return err
	}
	pg.passes = append(pg.passes, p)
	return nil
}

// callFigure runs one figure of the suite, turning its panic into an error.
func callFigure(fn func() *metrics.Table) (tab *metrics.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("figure panicked: %v", r)
		}
	}()
	return fn(), nil
}

func (pg *paperGrid) finish(out *outcome, t *timings) {
	first := pg.passes[0]
	for i, p := range pg.passes {
		out.attempted += p.submitted
		if p.digest != first.digest {
			out.fail("pass %d digest %s differs from pass 0 digest %s", i, p.digest, first.digest)
		}
		if p.timedGens != 0 {
			out.fail("pass %d generated %d sets in its timed phase; set-up missed a set the figures use", i, p.timedGens)
		}
		if len(p.runs)+p.derived != p.submitted {
			out.fail("pass %d: %d executed and %d derived runs reported for %d submitted; run labels are unreliable", i, len(p.runs), p.derived, p.submitted)
		}
	}
	checkDigest(out, pg.cfg, paperGridSpec.name, first.digest)
	pg.checkConservation(out, first)
	pg.checkOracle(out, first)

	// End-to-end metrics: each executed run's median time over the
	// untraced passes, in reference seconds. Every pass executes the same
	// runs, sorted the same way, which the key check below makes sure of.
	var untraced []pgPass
	for _, p := range pg.passes {
		if !p.traced {
			untraced = append(untraced, p)
		}
	}
	ref := untraced[0]
	perPass := make([][]float64, len(untraced))
	compile := make([]float64, len(untraced))
	for i, p := range untraced {
		if len(p.runs) != len(ref.runs) {
			out.fail("untraced pass %d executed %d runs, the first executed %d", i, len(p.runs), len(ref.runs))
			return
		}
		for j, r := range p.runs {
			if r.key != ref.runs[j].key {
				out.fail("untraced pass %d run %d is %s, the first pass ran %s", i, j, r.key, ref.runs[j].key)
				return
			}
			perPass[i] = append(perPass[i], r.engine().Seconds()*t.factor[i])
			compile[i] += float64(r.compileNs) / 1e9 * t.factor[i]
		}
	}
	times, err := unitMedians(perPass)
	if err != nil {
		out.fail("%v", err)
		return
	}
	var instrs uint64
	var warm []float64
	for j, r := range ref.runs {
		c, err := pg.classify(r.label)
		if err != nil {
			out.fail("%v", err)
			continue
		}
		instrs += c.instrs
		warm = append(warm, perMillionEntries(times[j], c.entries))
	}
	out.e2e["sim_minstr_per_s"] = float64(instrs) / (sum(times) + median(compile)) / 1e6
	out.samples["sim_minstr_per_s"] = len(untraced)
	setWarmJobs(out, warm, len(untraced), false)
	pairsFromRecords(out, first.records)

	if pg.cfg.trace {
		pg.fillLayer(out, first)
	}
}

// checkConservation checks that every closed-loop figure cell retired
// exactly the instructions of the set it replayed.
func (pg *paperGrid) checkConservation(out *outcome, p pgPass) {
	for _, r := range p.records {
		if r.Experiment != "fig5" && r.Experiment != "fig6" {
			continue
		}
		set := pg.sets[fmt.Sprintf("%s/%d", r.Workload, cellTxns(r.Cores))]
		if set == nil {
			out.fail("no set-up set for %s at %d cores", r.Workload, r.Cores)
			continue
		}
		if r.Instrs != set.Instrs() {
			out.fail("%s %s %s %dc retired %d instructions, set holds %d", r.Experiment, r.Workload, r.Sched, r.Cores, r.Instrs, set.Instrs())
		}
	}
}

// checkOracle re-runs three Figure 5 cells with the engine's reference
// loop (no fast paths, every hook invoked) and requires identical
// statistics. It covers seeds that have no committed digest.
func (pg *paperGrid) checkOracle(out *outcome, p pgPass) {
	const wl, cores = "TPC-E", 2
	set := pg.last.SetSized(wl, cellTxns(cores))
	for _, c := range fig5Schedulers {
		cfg := sim.DefaultConfig(cores)
		cfg.Seed = pg.last.Options().Seed
		ref := sim.New(cfg, set, c.mk()).RunReference().Stats
		got, ok := findRecord(p.records, "fig5", wl, c.name, cores, "")
		switch {
		case !ok:
			out.fail("no fig5 record for %s %s %dc", wl, c.name, cores)
		case got.Cycles != ref.Cycles || got.BusyCycles != ref.BusyCycles || got.Instrs != ref.Instrs ||
			got.IMPKI != ref.IMPKI() || got.DMPKI != ref.DMPKI():
			out.fail("fig5 %s %s %dc differs from the reference loop: cycles %d/%d busy %d/%d", wl, c.name, cores,
				got.Cycles, ref.Cycles, got.BusyCycles, ref.BusyCycles)
		}
	}
}

func findRecord(recs []metrics.RunRecord, exp, wl, schedName string, cores int, arrival string) (metrics.RunRecord, bool) {
	for _, r := range recs {
		if r.Experiment == exp && r.Workload == wl && r.Sched == schedName && r.Cores == cores && r.Arrival == arrival {
			return r, true
		}
	}
	return metrics.RunRecord{}, false
}

// pairsFromRecords computes the two modelled STREX ratios over the
// distinct Base/STREX cell pairs: Figure 5's closed-loop cells and the
// open-loop scenarios (Figure 6 reuses Figure 5's Base and STREX runs).
func pairsFromRecords(out *outcome, recs []metrics.RunRecord) {
	var baseBusy, strexBusy, baseI, strexI []float64
	for _, b := range recs {
		if b.Sched != "Base" || (b.Experiment != "fig5" && b.Experiment != "openloop") {
			continue
		}
		s, ok := findRecord(recs, b.Experiment, b.Workload, "STREX", b.Cores, b.Arrival)
		if !ok {
			out.fail("%s %s %dc has no STREX pair", b.Experiment, b.Workload, b.Cores)
			continue
		}
		baseBusy = append(baseBusy, float64(b.BusyCycles))
		strexBusy = append(strexBusy, float64(s.BusyCycles))
		baseI = append(baseI, b.IMPKI)
		strexI = append(strexI, s.IMPKI)
	}
	setRatios(out, baseBusy, strexBusy, baseI, strexI)
}

// setRatios fills sim_speedup_strex (geomean of Base/STREX busy cycles)
// and sim_impki_ratio_strex (geomean of STREX/Base L1-I MPKI).
func setRatios(out *outcome, baseBusy, strexBusy, baseI, strexI []float64) {
	speedup, err := geomeanRatio(baseBusy, strexBusy)
	if err != nil {
		out.fail("sim_speedup_strex: %v", err)
	}
	impki, err := geomeanRatio(strexI, baseI)
	if err != nil {
		out.fail("sim_impki_ratio_strex: %v", err)
	}
	out.e2e["sim_speedup_strex"] = speedup
	out.e2e["sim_impki_ratio_strex"] = impki
	out.samples["sim_speedup_strex"] = len(baseBusy)
	out.samples["sim_impki_ratio_strex"] = len(baseI)
}

// setWarmJobs fills the two warm-job latency percentiles. Each sample
// is one job's median latency over the run's untraced passes, of which
// there were passes. With strict set (strexd-warm, untraced) the run
// fails unless p90 has minBeyond jobs beyond it. The engine grids have
// fewer warm cells than that needs, so there the count is only
// reported.
func setWarmJobs(out *outcome, ms []float64, passes int, strict bool) {
	if len(ms) == 0 {
		out.fail("no warm job was measured")
		return
	}
	p50, p90 := percentileOf(ms, 50), percentileOf(ms, 90)
	if strict && !p90.Reportable() {
		out.fail("warm-job p90 has %d samples beyond it, need %d", p90.Beyond, minBeyond)
	}
	out.e2e["warm_job_ms_p50"] = p50.Value
	out.e2e["warm_job_ms_p90"] = p90.Value
	out.samples["warm_job_ms_p50"] = len(ms)
	out.samples["warm_job_ms_p90"] = len(ms)
	out.layer["harness.warm_job_samples"] = float64(len(ms))
	line := fmt.Sprintf("warm jobs: n=%d over %d passes p50=%.3fms p90=%.3fms (%d beyond)", len(ms), passes, p50.Value, p90.Value, p90.Beyond)
	if top, ok := highestReportable(ms, []float64{50, 90, 99, 99.9}); ok {
		line += fmt.Sprintf("; highest reportable p%g=%.3fms (%d beyond)", top.P, top.Value, top.Beyond)
	}
	fmt.Fprintln(out.log, line)
}

// perMillionEntries scales a job's host latency, in seconds, to a job
// of one million trace entries, in ms. Engine jobs differ in size by
// more than an order of magnitude; scaled, they form one class, so a
// percentile over them does not sit on the gap between two sizes.
func perMillionEntries(secs float64, entries int) float64 {
	return secs * 1e9 / float64(entries)
}

// runClass is what a run label identifies: its scheduler class, its
// core count (0 for open-loop runs, which no class metric covers) and
// the instructions and trace entries it replays.
type runClass struct {
	sched   string
	cores   int
	instrs  uint64
	entries int
}

var gridTags = map[string]string{
	"Base": "base", "SLICC": "slicc", "STREX": "strex", // Figure 5
	"base": "base", "next": "nextline", "pif": "pif", "slicc": "slicc", "strex": "strex", "hybrid": "hybrid", // Figure 6
}

// classify maps an executor label to its run class. Labels follow the
// figure functions: fig5/<workload>/<N>c/<sched>, fig6/<workload>/<N>c/<tag>,
// openloop/capacity and openloop/<scenario>/<arrivals>/<sched>.
func (pg *paperGrid) classify(label string) (runClass, error) {
	parts := strings.Split(label, "/")
	olSet := func(wl string) *workload.Set { return pg.sets[fmt.Sprintf("%s/%d", wl, cellTxns(olCores()))] }
	olHalf := func(wl string) *workload.Set { return pg.sets[fmt.Sprintf("%s/%d", wl, (cellTxns(olCores())+1)/2)] }
	var sets []*workload.Set
	c := runClass{}
	switch {
	case len(parts) == 4 && (parts[0] == "fig5" || parts[0] == "fig6") && strings.HasSuffix(parts[2], "c"):
		cores, err := strconv.Atoi(strings.TrimSuffix(parts[2], "c"))
		if err != nil {
			return c, fmt.Errorf("run label %q: %v", label, err)
		}
		c.cores, c.sched = cores, gridTags[parts[3]]
		sets = []*workload.Set{pg.sets[fmt.Sprintf("%s/%d", parts[1], cellTxns(cores))]}
	case label == "openloop/capacity":
		c.sched = "strex"
		sets = []*workload.Set{olSet("TPC-C-1")}
	case len(parts) >= 3 && parts[0] == "openloop" && parts[1] == "mix":
		c.sched = gridTags[parts[len(parts)-1]]
		sets = []*workload.Set{olHalf("TPC-C-1"), olHalf("TATP")}
	case len(parts) >= 3 && parts[0] == "openloop":
		c.sched = gridTags[parts[len(parts)-1]]
		sets = []*workload.Set{olSet("TPC-C-1")}
	}
	if c.sched == "" || len(sets) == 0 {
		return c, fmt.Errorf("unrecognised run label %q", label)
	}
	for _, s := range sets {
		if s == nil {
			return c, fmt.Errorf("run label %q names a set the set-up did not build", label)
		}
		c.instrs += s.Instrs()
		c.entries += setEntries(s)
	}
	return c, nil
}

// fillLayer computes paper-grid's per-layer metrics from its traced
// passes.
func (pg *paperGrid) fillLayer(out *outcome, first pgPass) {
	var traced []pgPass
	for _, p := range pg.passes {
		if p.traced {
			traced = append(traced, p)
		}
	}
	med := func(f func(p pgPass) float64) float64 { return medianOf(traced, f) }
	out.layer["bench.gen_s"] = med(func(p pgPass) float64 { return p.setup.seconds })
	out.layer["bench.sets"] = float64(first.setup.gens)
	out.layer["bench.mentries_per_s"] = med(func(p pgPass) float64 { return float64(p.setup.entries) / p.setup.seconds / 1e6 })
	out.layer["trace.compile_s"] = med(func(p pgPass) float64 { return float64(p.compile.nanos) / 1e9 })
	out.layer["trace.segments"] = float64(first.compile.segs)
	share, err := pg.segShare()
	if err != nil {
		out.fail("trace.seg_instr_share: %v", err)
	}
	out.layer["trace.seg_instr_share"] = share

	out.layer["sim.run_s"] = med(func(p pgPass) float64 { return runSeconds(p.runs) })
	out.layer["sim.runs"] = float64(len(first.runs))
	out.layer["runner.submitted"] = float64(first.submitted)
	out.layer["runner.executed"] = float64(len(first.runs))
	out.layer["runner.dedup_ratio"] = 1 - float64(len(first.runs))/float64(first.submitted)
	out.layer["runner.overhead_s"] = med(func(p pgPass) float64 {
		return p.figS["fig5"] + p.figS["fig6"] + p.figS["openloop"] - runSeconds(p.runs)
	})
	for _, f := range []string{"fig5", "fig6", "openloop"} {
		f := f
		out.layer["experiments."+f+"_s"] = med(func(p pgPass) float64 { return p.figS[f] })
	}

	// Per-class host cost, pooled over the traced passes.
	type acc struct {
		ns      float64
		entries float64
		allocs  float64
		runs    float64
	}
	classes := map[string]*acc{}
	scheds := map[string]*acc{}
	total := &acc{}
	for _, p := range traced {
		for _, r := range p.runs {
			c, err := pg.classify(r.label)
			if err != nil {
				continue // already reported by finish
			}
			ns := float64(r.dur.Nanoseconds()) - float64(r.compileNs) // engine time per entry, compile excluded
			total.ns += ns
			total.entries += float64(c.entries)
			if c.cores == 0 {
				continue
			}
			key := fmt.Sprintf("%s.c%d", c.sched, c.cores)
			if classes[key] == nil {
				classes[key] = &acc{}
			}
			classes[key].ns += ns
			classes[key].entries += float64(c.entries)
			if scheds[c.sched] == nil {
				scheds[c.sched] = &acc{}
			}
			scheds[c.sched].allocs += float64(r.allocs)
			scheds[c.sched].runs++
		}
	}
	out.layer["sim.ns_per_entry"] = total.ns / total.entries
	for key, a := range classes {
		out.layer["sim.ns_per_entry."+key] = a.ns / a.entries
	}
	for s, a := range scheds {
		out.layer["sim.allocs_per_run."+s] = a.allocs / a.runs
	}

	// Modelled per-scheduler cache and scheduling rates (exact).
	rates := schedRates{}
	fig6Only := map[string]string{"Next-line": "nextline", "PIF-No Overhead": "pif", "STREX+SLICC": "hybrid"}
	for _, r := range first.records {
		switch {
		case r.Experiment == "fig5":
			rates.add(gridTags[r.Sched], r.Instrs, r.IMPKI, r.DMPKI, 0)
		case r.Experiment == "fig6" && fig6Only[r.Sched] != "":
			rates.add(fig6Only[r.Sched], r.Instrs, r.IMPKI, r.DMPKI, 0)
		}
	}
	rates.fill(out)
	switches, migrations, err := fig5Events(first.fig5, first.records)
	if err != nil {
		out.fail("%v", err)
	}
	out.layer["sched.switches_per_kinstr.strex"] = switches
	out.layer["sched.migrations_per_kinstr.slicc"] = migrations
}

// fig5Schedulers build fresh schedulers for Figure 5's labels.
var fig5Schedulers = []struct {
	name string
	mk   func() sim.Scheduler
}{
	{"Base", func() sim.Scheduler { return sched.NewBaseline() }},
	{"SLICC", func() sim.Scheduler { return sched.NewSlicc() }},
	{"STREX", func() sim.Scheduler { return sched.NewStrex() }},
}

// segShare re-runs Figure 5's cells with a run timeline attached and
// returns the share of their instructions the engine retired through
// segment replay.
func (pg *paperGrid) segShare() (float64, error) {
	var seg, all uint64
	for _, wl := range experiments.WorkloadNames() {
		for _, cores := range gridCores {
			for _, c := range fig5Schedulers {
				cfg := sim.DefaultConfig(cores)
				cfg.Seed = pg.last.Options().Seed
				tl := obs.NewTimeline(timelineEvents)
				eng := sim.New(cfg, pg.last.SetSized(wl, cellTxns(cores)), c.mk())
				eng.SetTimeline(tl)
				res := eng.Run()
				n, err := segRetired(tl)
				if err != nil {
					return 0, fmt.Errorf("%s %s %dc: %w", wl, c.name, cores, err)
				}
				seg += n
				all += res.Stats.Instrs
			}
		}
	}
	return float64(seg) / float64(all), nil
}

// fig5Events reads STREX's context switches and SLICC's migrations per
// thousand instructions from the Figure 5 table.
func fig5Events(tab *metrics.Table, recs []metrics.RunRecord) (switches, migrations float64, err error) {
	var sw, mig, swInstr, migInstr float64
	for _, row := range tab.Rows {
		if len(row) != 7 {
			return 0, 0, fmt.Errorf("figure 5 row %q has %d columns, want 7", row, len(row))
		}
		cores, err1 := strconv.Atoi(row[1])
		s, err2 := strconv.ParseUint(row[5], 10, 64)
		m, err3 := strconv.ParseUint(row[6], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return 0, 0, fmt.Errorf("figure 5 row %q: bad cores, switches or migrations", row)
		}
		r, ok := findRecord(recs, "fig5", row[0], row[2], cores, "")
		if !ok {
			return 0, 0, fmt.Errorf("figure 5 row %q has no record", row)
		}
		switch row[2] {
		case "STREX":
			sw += float64(s)
			swInstr += float64(r.Instrs)
		case "SLICC":
			mig += float64(m)
			migInstr += float64(r.Instrs)
		}
	}
	if swInstr == 0 || migInstr == 0 {
		return 0, 0, fmt.Errorf("figure 5 has no STREX or SLICC rows")
	}
	return sw / swInstr * 1000, mig / migInstr * 1000, nil
}

// runEvent is one executed engine run as the run observer saw it.
type runEvent struct {
	label     string
	key       string // label#k for the k-th run with that label in its pass
	dur       time.Duration
	compileNs uint64 // segment-compile time spent during the run
	allocs    uint64 // heap objects allocated since the previous run ended (traced passes)
}

// engine is the run's host time with its segment compile taken out.
// Which run on a set compiles its tables depends on the order the
// executor dispatches runs in, and that order varies from pass to pass.
func (r runEvent) engine() time.Duration {
	return r.dur - time.Duration(r.compileNs)
}

// runLog pairs the executor's two hooks. The run observer fires at the
// end of every executed run (dedup-derived runs excluded) and the
// progress callback right after, carrying the run's label; derived runs
// report progress only. With a serial executor the pairing is exact:
// each observer event is claimed by the next progress event.
type runLog struct {
	mu       sync.Mutex
	tr       *Tracer
	cal      *calibrator // runs a calibration slice between runs when due
	parent   int
	allocs   bool
	pending  []runEvent
	runs     []runEvent
	derived  int
	lastComp uint64
	lastObjs uint64
}

func (l *runLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastComp = readCompile().nanos
	if l.allocs {
		l.lastObjs = heapObjects()
	}
}

func (l *runLog) setParent(id int) {
	l.mu.Lock()
	l.parent = id
	l.cal.under(id)
	l.mu.Unlock()
}

func (l *runLog) onRun(d time.Duration) {
	end := l.tr.Now()
	comp := readCompile().nanos
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := runEvent{dur: d, compileNs: comp - l.lastComp}
	l.lastComp = comp
	if l.allocs {
		objs := heapObjects()
		ev.allocs = objs - l.lastObjs
		l.lastObjs = objs
	}
	if l.tr != nil {
		id := l.tr.Add(l.parent, "sim", "run", "", end-d, end)
		if ev.compileNs > 0 {
			l.tr.Add(id, "trace", "compile", "", end-d, end-d+time.Duration(ev.compileNs))
		}
	}
	l.pending = append(l.pending, ev)
	// The observer runs on the executor's only worker, before the next
	// run starts, so the slice never overlaps a run.
	l.cal.after(d)
}

func (l *runLog) onProgress(_, _ int, label string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		l.derived++
		return
	}
	ev := l.pending[0]
	l.pending = l.pending[1:]
	ev.label = label
	l.runs = append(l.runs, ev)
}

// result returns the pass's executed runs sorted by key, so that every
// pass lists the same runs in the same order, and the derived-run count.
func (l *runLog) result() ([]runEvent, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := map[string]int{}
	for i := range l.runs {
		r := &l.runs[i]
		r.key = fmt.Sprintf("%s#%d", r.label, seen[r.label])
		seen[r.label]++
	}
	sort.SliceStable(l.runs, func(i, j int) bool { return l.runs[i].key < l.runs[j].key })
	return l.runs, l.derived
}

func runSeconds(runs []runEvent) float64 {
	var d time.Duration
	for _, r := range runs {
		d += r.dur
	}
	return d.Seconds()
}

// setEntries counts a set's trace entries.
func setEntries(s *workload.Set) int {
	n := 0
	for _, t := range s.Txns {
		n += t.Trace.Len()
	}
	return n
}

// digestOf returns the SHA-256 of v's JSON encoding.
func digestOf(v interface{}) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
