package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"strex"
	"strex/internal/bench"
	"strex/internal/core"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/synth"
	"strex/internal/workload"
)

// solo-explore is a 1-core design-space grid run serially through the
// strex facade, with no cache. On one core the engine takes its solo
// path and replays compiled segments, more and more of them as the L1-I
// outgrows the footprint; the heap, coherence and SLICC do no work.
var soloExploreSpec = workloadSpec{
	name:  "solo-explore",
	why:   "1-core grid across the footprint axis and L1-I 16-128 KB through the strex facade: solo path, segment compile and replay; LIP rows take the non-collapsing cache path",
	start: startSoloExplore,
}

// soloWorkload is one row group of the grid. Transaction counts are
// chosen so every workload simulates a similar number of instructions,
// and none dominates the host time.
type soloWorkload struct {
	name  string
	units float64 // Synth footprint in 32 KB L1-I units (Synth only)
	txns  int
}

var soloGrid = []soloWorkload{
	{name: "SmallBank", txns: 600},
	{name: "TATP", txns: 240},
	{name: "TPC-E", txns: 80},
	{name: "TPC-C-1", txns: 16},
	{name: "MapReduce", txns: 20},
	{name: "Synth", units: 1, txns: 1200},
	{name: "Synth", units: 4, txns: 300},
	{name: "Synth", units: 12, txns: 100},
}

// soloLIPKB is the L1-I size of each workload's LIP row.
const soloLIPKB = 32

func (w soloWorkload) label() string {
	if w.name == "Synth" {
		return fmt.Sprintf("Synth-%gu", w.units)
	}
	return w.name
}

func (w soloWorkload) options(seed uint64) strex.WorkloadOptions {
	return strex.WorkloadOptions{Txns: w.txns, Seed: seed, SynthFootprintUnits: w.units}
}

// soloCell is one grid point.
type soloCell struct {
	wl     int // index into soloGrid
	l1iKB  int
	policy string
	kind   strex.SchedulerKind
}

func (c soloCell) id() string {
	return fmt.Sprintf("%s/l1i%d/%s/%s", soloGrid[c.wl].label(), c.l1iKB, c.policy, schedTag(c.kind))
}

func (c soloCell) config() strex.Config {
	cfg := strex.DefaultConfig(1)
	cfg.L1IKB = c.l1iKB
	cfg.Policy = c.policy
	return cfg
}

func schedTag(k strex.SchedulerKind) string {
	if k == strex.SchedSTREX {
		return "strex"
	}
	return "base"
}

func soloCells() []soloCell {
	var cells []soloCell
	for wl := range soloGrid {
		for _, kb := range soloL1IKB {
			for _, k := range []strex.SchedulerKind{strex.SchedBaseline, strex.SchedSTREX} {
				cells = append(cells, soloCell{wl, kb, "LRU", k})
			}
		}
		for _, k := range []strex.SchedulerKind{strex.SchedBaseline, strex.SchedSTREX} {
			cells = append(cells, soloCell{wl, soloLIPKB, "LIP", k})
		}
	}
	return cells
}

type soloExplore struct {
	cfg      runConfig
	cells    []soloCell
	ws       []*strex.Workload // set up for the next pass
	lastWs   []*strex.Workload // the last pass's workloads
	setupRec setupRecord
	passes   []soloPass
}

type soloPass struct {
	traced  bool
	setup   setupRecord
	results []strex.Result
	calls   []cellCall
	compile compileDelta
	digest  string
}

// cellCall is one facade call's host-side record.
type cellCall struct {
	call      time.Duration // facade call, entry to return
	run       time.Duration // engine run inside it (run observer)
	runs      int           // engine runs the observer saw
	compileNs uint64
	allocs    uint64
}

func startSoloExplore(cfg runConfig) (workloadRun, error) {
	return &soloExplore{cfg: cfg, cells: soloCells()}, nil
}

func (se *soloExplore) close() {}

func (se *soloExplore) setup(tr *Tracer, parent int, cal *calibrator) error {
	se.lastWs = nil // let the previous pass's sets go before building new ones
	t0, c0 := time.Now(), cal.total
	g0 := bench.Generations()
	se.ws = make([]*strex.Workload, len(soloGrid))
	for i, w := range soloGrid {
		id := tr.Begin(parent, "bench", "BuildWorkload", w.label())
		t1 := time.Now()
		wk, err := strex.BuildWorkload(w.name, w.options(se.cfg.seed))
		tr.End(id)
		cal.after(time.Since(t1))
		if err != nil {
			return fmt.Errorf("build %s: %w", w.label(), err)
		}
		se.ws[i] = wk
	}
	se.setupRec = setupRecord{gens: bench.Generations() - g0, seconds: (time.Since(t0) - (cal.total - c0)).Seconds()}
	return nil
}

func (se *soloExplore) pass(tr *Tracer, parent int, cal *calibrator) error {
	ws := se.ws
	se.ws, se.lastWs = nil, ws
	pool := strex.NewPool(1, nil)
	var mu sync.Mutex
	var runDur time.Duration
	var runs int
	pool.SetRunObserver(func(d time.Duration) {
		mu.Lock()
		runDur += d
		runs++
		mu.Unlock()
	})
	p := soloPass{traced: tr != nil, setup: se.setupRec}
	c0 := readCompile()
	ctx := context.Background()
	for _, c := range se.cells {
		cfg := c.config()
		mu.Lock()
		runDur, runs = 0, 0
		mu.Unlock()
		comp := readCompile().nanos
		var objs uint64
		if tr != nil {
			objs = heapObjects()
		}
		id := tr.Begin(parent, "strex", "RunDrawsCtx", c.id())
		t0 := time.Now()
		rr, _, err := pool.RunDrawsCtx(ctx, cfg, []*strex.Workload{ws[c.wl]}, c.kind, nil)
		call := time.Since(t0)
		tr.End(id)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.id(), err)
		}
		mu.Lock()
		cc := cellCall{call: call, run: runDur, runs: runs, compileNs: readCompile().nanos - comp}
		mu.Unlock()
		if tr != nil {
			cc.allocs = heapObjects() - objs
			// The engine run ends just before the facade call returns;
			// segment compiles happen as the run starts.
			end := tr.At(t0.Add(call))
			sid := tr.Add(id, "sim", "run", c.id(), end-cc.run, end)
			if cc.compileNs > 0 {
				tr.Add(sid, "trace", "compile", c.id(), end-cc.run, end-cc.run+time.Duration(cc.compileNs))
			}
		}
		p.calls = append(p.calls, cc)
		p.results = append(p.results, rr.Results[0])
		cal.after(call)
	}
	p.compile = readCompile().sub(c0)
	var err error
	if p.digest, err = digestOf(p.results); err != nil {
		return err
	}
	se.passes = append(se.passes, p)
	return nil
}

func (se *soloExplore) finish(out *outcome, t *timings) {
	first := se.passes[0]
	for i, p := range se.passes {
		out.attempted += len(p.calls)
		if p.digest != first.digest {
			out.fail("pass %d digest %s differs from pass 0 digest %s", i, p.digest, first.digest)
		}
		for j, cc := range p.calls {
			if cc.runs != 1 {
				out.fail("pass %d cell %s: the run observer saw %d engine runs, want 1", i, se.cells[j].id(), cc.runs)
			}
		}
	}
	checkDigest(out, se.cfg, soloExploreSpec.name, first.digest)

	// Rebuild the sets the facade hides, for entry counts, the
	// conservation check and the reference-loop oracle.
	sets := make([]*workload.Set, len(soloGrid))
	entries := make([]int, len(soloGrid))
	for i, w := range soloGrid {
		set, err := bench.BuildSet(w.name, w.txns, bench.Options{Seed: se.cfg.seed, Synth: synth.Params{FootprintUnits: w.units}})
		if err != nil {
			out.fail("rebuild %s: %v", w.label(), err)
			return
		}
		sets[i] = set
		entries[i] = setEntries(set)
	}
	for j, c := range se.cells {
		if got, want := first.results[j].Instrs, sets[c.wl].Instrs(); got != want {
			out.fail("cell %s retired %d instructions, set holds %d", c.id(), got, want)
		}
	}
	se.checkOracle(out, first, sets)

	// End-to-end metrics: each cell's median call and run times over the
	// untraced passes, in reference seconds.
	var calls, runs [][]float64
	var ref soloPass
	for _, p := range se.passes {
		if p.traced {
			continue
		}
		if calls == nil {
			ref = p
		}
		f := t.factor[len(calls)]
		var c, r []float64
		for _, cc := range p.calls {
			c = append(c, cc.call.Seconds()*f)
			r = append(r, cc.run.Seconds()*f)
		}
		calls, runs = append(calls, c), append(runs, r)
	}
	callTimes, err := unitMedians(calls)
	if err != nil {
		out.fail("%v", err)
		return
	}
	runTimes, err := unitMedians(runs)
	if err != nil {
		out.fail("%v", err)
		return
	}
	var instrs uint64
	var warm []float64
	for j, cc := range ref.calls {
		instrs += ref.results[j].Instrs
		if cc.compileNs == 0 {
			warm = append(warm, perMillionEntries(callTimes[j], entries[se.cells[j].wl]))
		}
	}
	out.e2e["sim_minstr_per_s"] = float64(instrs) / sum(runTimes) / 1e6
	out.samples["sim_minstr_per_s"] = len(calls)
	setWarmJobs(out, warm, len(calls), false)

	var baseBusy, strexBusy, baseI, strexI []float64
	for j, c := range se.cells {
		if c.kind != strex.SchedBaseline {
			continue
		}
		b, s := first.results[j], first.results[j+1] // STREX follows Base in soloCells
		baseBusy = append(baseBusy, float64(b.BusyCycles))
		strexBusy = append(strexBusy, float64(s.BusyCycles))
		baseI = append(baseI, b.IMPKI)
		strexI = append(strexI, s.IMPKI)
	}
	setRatios(out, baseBusy, strexBusy, baseI, strexI)

	if se.cfg.trace {
		se.fillLayer(out, first, entries)
	}
}

// checkOracle re-runs the TPC-E cells at 32 KB LRU with the engine's
// reference loop and requires identical statistics.
func (se *soloExplore) checkOracle(out *outcome, p soloPass, sets []*workload.Set) {
	for j, c := range se.cells {
		if soloGrid[c.wl].name != "TPC-E" || c.l1iKB != 32 || c.policy != "LRU" {
			continue
		}
		// The same system and scheduler the facade builds from c.config().
		fc := c.config()
		cfg := sim.DefaultConfig(fc.Cores)
		cfg.L1IKB, cfg.L1DKB, cfg.L1Ways, cfg.PoolWindow, cfg.Seed = fc.L1IKB, fc.L1DKB, fc.L1Ways, fc.PoolWindow, fc.Seed
		var s sim.Scheduler = sched.NewBaseline()
		if c.kind == strex.SchedSTREX {
			s = sched.NewStrexSized(core.FormationConfig{Window: fc.PoolWindow, TeamSize: fc.TeamSize})
		}
		ref := sim.New(cfg, sets[c.wl], s).RunReference().Stats
		got := p.results[j]
		if got.Cycles != ref.Cycles || got.BusyCycles != ref.BusyCycles || got.Instrs != ref.Instrs ||
			got.IMPKI != ref.IMPKI() || got.DMPKI != ref.DMPKI() || got.Switches != ref.Switches {
			out.fail("cell %s differs from the reference loop: cycles %d/%d busy %d/%d", c.id(),
				got.Cycles, ref.Cycles, got.BusyCycles, ref.BusyCycles)
		}
	}
}

// segShare re-runs every cell with a run timeline attached and returns
// the share of the grid's instructions the engine retired through
// segment replay.
func (se *soloExplore) segShare() (float64, error) {
	var seg, all uint64
	for _, c := range se.cells {
		res, tl, err := strex.RunTraced(c.config(), se.lastWs[c.wl], c.kind, timelineEvents)
		if err != nil {
			return 0, fmt.Errorf("cell %s: %w", c.id(), err)
		}
		n, err := segRetired(tl)
		if err != nil {
			return 0, fmt.Errorf("cell %s: %w", c.id(), err)
		}
		seg += n
		all += res.Instrs
	}
	return float64(seg) / float64(all), nil
}

func (se *soloExplore) fillLayer(out *outcome, first soloPass, entries []int) {
	var traced []soloPass
	for _, p := range se.passes {
		if p.traced {
			traced = append(traced, p)
		}
	}
	med := func(f func(p soloPass) float64) float64 { return medianOf(traced, f) }
	var allEntries int
	for _, n := range entries {
		allEntries += n
	}
	out.layer["bench.gen_s"] = med(func(p soloPass) float64 { return p.setup.seconds })
	out.layer["bench.sets"] = float64(first.setup.gens)
	out.layer["bench.mentries_per_s"] = med(func(p soloPass) float64 { return float64(allEntries) / p.setup.seconds / 1e6 })
	out.layer["trace.compile_s"] = med(func(p soloPass) float64 { return float64(p.compile.nanos) / 1e9 })
	out.layer["trace.segments"] = float64(first.compile.segs)
	share, err := se.segShare()
	if err != nil {
		out.fail("trace.seg_instr_share: %v", err)
	}
	out.layer["trace.seg_instr_share"] = share

	sum := func(p soloPass, f func(cc cellCall) time.Duration) float64 {
		var d time.Duration
		for _, cc := range p.calls {
			d += f(cc)
		}
		return d.Seconds()
	}
	out.layer["sim.run_s"] = med(func(p soloPass) float64 { return sum(p, func(cc cellCall) time.Duration { return cc.run }) })
	out.layer["strex.overhead_s"] = med(func(p soloPass) float64 {
		return sum(p, func(cc cellCall) time.Duration { return cc.call - cc.run })
	})
	out.layer["sim.runs"] = float64(len(first.calls))
	out.layer["runner.submitted"] = float64(len(first.calls))
	out.layer["runner.executed"] = float64(len(first.calls))

	type acc struct{ ns, entries float64 }
	type allocAcc struct{ allocs, runs float64 }
	perClass := map[string]*acc{}
	perSched := map[string]*allocAcc{}
	var total acc
	for _, p := range traced {
		for j, cc := range p.calls {
			c := se.cells[j]
			tag := schedTag(c.kind)
			key := fmt.Sprintf("%s.l1i%d", tag, c.l1iKB)
			if c.policy == "LIP" {
				key = tag + ".lip"
			}
			ns := float64(cc.run.Nanoseconds()) - float64(cc.compileNs) // engine time per entry, compile excluded
			e := float64(entries[c.wl])
			if perClass[key] == nil {
				perClass[key] = &acc{}
			}
			perClass[key].ns += ns
			perClass[key].entries += e
			total.ns += ns
			total.entries += e
			if perSched[tag] == nil {
				perSched[tag] = &allocAcc{}
			}
			perSched[tag].allocs += float64(cc.allocs)
			perSched[tag].runs++
		}
	}
	out.layer["sim.ns_per_entry"] = total.ns / total.entries
	for key, a := range perClass {
		out.layer["sim.ns_per_entry."+key] = a.ns / a.entries
	}
	for tag, a := range perSched {
		out.layer["sim.allocs_per_run."+tag] = a.allocs / a.runs
	}

	rates := schedRates{}
	for j, c := range se.cells {
		r := first.results[j]
		rates.add(schedTag(c.kind), r.Instrs, r.IMPKI, r.DMPKI, r.Switches)
	}
	rates.fill(out)
}
