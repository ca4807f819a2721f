package experiments

import (
	"fmt"

	"strex/internal/bench"
	"strex/internal/cache"
	"strex/internal/core"
	"strex/internal/metrics"
	"strex/internal/prefetch"
	"strex/internal/runner"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/workload"
)

// Scheduler factories for runner specs: each run constructs a fresh
// scheduler in its worker goroutine, so no run-private state can leak
// between runs.
func newBaseline() sim.Scheduler { return sched.NewBaseline() }
func newSlicc() sim.Scheduler    { return sched.NewSlicc() }
func newStrex() sim.Scheduler    { return sched.NewStrex() }

// Scheduler identities for runner.Spec.SchedID: label-independent names
// of what the factories above construct, so identical (set, config,
// scheduler) cells submitted by different figures execute once (the
// executor's in-process dedup). Prefetcher and policy variants need no
// distinct identity — they live in sim.Config, which is part of the
// dedup key.
const (
	idBase  = "base"
	idSlicc = "slicc"
)

func strexTeamID(teamSize int) string { return fmt.Sprintf("strex/w30/t%d", teamSize) }

var idStrex = strexTeamID(10)

func newStrexTeam(teamSize int) func() sim.Scheduler {
	return func() sim.Scheduler {
		return sched.NewStrexSized(core.FormationConfig{Window: 30, TeamSize: teamSize})
	}
}

// runHybridReps submits a replicated hybrid cell as the mechanism the
// hybrid picks (Section 5.5): each replicate's set is profiled once and
// the replicate runs as plain SLICC or STREX, under that mechanism's
// identity — so the executor serves it from the identical Figure 5
// cell instead of simulating it again. Replicates profile their own
// trace draws and may pick differently.
func (s *Suite) runHybridReps(label string, sets []*workload.Set, cores int) *Reps {
	ids := make([]string, len(sets))
	mks := make([]func() sim.Scheduler, len(sets))
	for rep, set := range sets {
		ids[rep], mks[rep] = idStrex, newStrex
		if core.MeasureFPTable(set, core.HybridSamples).ChooseSLICC(cores) {
			ids[rep], mks[rep] = idSlicc, newSlicc
		}
	}
	schedFor := func(rep int) (string, func() sim.Scheduler) { return ids[rep], mks[rep] }
	return s.submitReps(label, ids[0], sets, cores, schedFor, mks[0], nil)
}

// replicate builds the Figure 4 "hypothetical workload": each of the
// instances is replicated `times` times (sharing the identical trace),
// interleaved so replicas of the same instance arrive together. Callers
// holding a cacheable parent register the result via Suite.derivedSet.
// It delegates to workload.ReplicateIdentical — the same function
// sharding workers apply — so the "+replicateN" content address means
// the same bytes in every process.
func replicate(set *workload.Set, times int) *workload.Set {
	return workload.ReplicateIdentical(set, times)
}

// Figure4 reproduces the identical-transaction potential study: ten
// random instances of each transaction type, each replicated ten times
// (100 transactions), run on one core under the baseline and under the
// synchronization algorithm ("CTX-Identical" = STREX on identical
// transactions, for which the algorithm is optimal).
func (s *Suite) Figure4() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Figure 4: I-MPKI with identical transactions (Baseline vs CTX-Identical)",
		Header: []string{"workload", "txn type", "Baseline I-MPKI", "CTX-Identical I-MPKI", "reduction"},
	}
	type src struct {
		wl, reg string
	}
	srcs := []src{
		{"TPC-C", "TPC-C-1"},
		{"TPC-E", "TPC-E"},
	}
	type cell struct {
		wl, name  string
		base, ctx *runner.Future
	}
	var cells []cell
	for _, sc := range srcs {
		for _, name := range registryTypes(sc.reg) {
			instances := s.TypedSet(sc.reg, name, 10)
			identical := s.derivedSet(replicate(instances, 10), instances, "replicate10")
			cells = append(cells, cell{
				wl: sc.wl, name: name,
				base: s.runAsync("fig4/"+name+"/base", idBase, identical, 1, newBaseline, nil),
				ctx:  s.runAsync("fig4/"+name+"/ctx", idStrex, identical, 1, newStrex, nil),
			})
		}
	}
	for _, c := range cells {
		base := c.base.Result().Stats
		ctx := c.ctx.Result().Stats
		red := 0.0
		if base.IMPKI() > 0 {
			red = (1 - ctx.IMPKI()/base.IMPKI()) * 100
		}
		tab.AddRow(c.wl, c.name, base.IMPKI(), ctx.IMPKI(), fmt.Sprintf("%.0f%%", red))
	}
	tab.AddNote("paper: the synchronization algorithm reduces I-MPKI significantly for every type")
	return tab
}

// Figure5 reports L1 I-MPKI and D-MPKI for Base, SLICC and STREX across
// 2–16 cores and the four workloads.
func (s *Suite) Figure5() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Figure 5: L1 instruction and data MPKI",
		Header: []string{"workload", "cores", "sched", "I-MPKI", "D-MPKI", "switches", "migrations"},
	}
	baseI := map[string][]float64{}
	strexI := map[string][]float64{}
	baseD := map[string][]float64{}
	strexD := map[string][]float64{}
	type cell struct {
		wl    string
		cores int
		name  string
		reps  *Reps
	}
	var cells []cell
	for _, wl := range WorkloadNames() {
		for _, cores := range s.opts.Cores {
			sets := s.setsSized(wl, s.cellTxns(cores, 10))
			for _, mk := range []struct {
				name string
				id   string
				fn   func() sim.Scheduler
			}{
				{"Base", idBase, newBaseline}, {"SLICC", idSlicc, newSlicc}, {"STREX", idStrex, newStrex},
			} {
				label := fmt.Sprintf("fig5/%s/%dc/%s", wl, cores, mk.name)
				cells = append(cells, cell{wl, cores, mk.name, s.runReps(label, mk.id, sets, cores, mk.fn, nil)})
			}
		}
	}
	for _, c := range cells {
		st := c.reps.Seed0().Stats
		s.recordReps("fig5", c.wl, c.name, c.cores, c.reps)
		tab.AddRow(c.wl, c.cores, c.name, st.IMPKI(), st.DMPKI(), st.Switches, st.Migrations)
		switch c.name {
		case "Base":
			baseI[c.wl] = append(baseI[c.wl], st.IMPKI())
			baseD[c.wl] = append(baseD[c.wl], st.DMPKI())
		case "STREX":
			strexI[c.wl] = append(strexI[c.wl], st.IMPKI())
			strexD[c.wl] = append(strexD[c.wl], st.DMPKI())
		}
	}
	for _, wl := range []string{"TPC-C-1", "TPC-C-10", "TPC-E"} {
		tab.AddNote("%s: mean I-MPKI reduction %.0f%%, D-MPKI reduction %.0f%% (paper averages: 30/29/44%% I, up to 37%% D)",
			wl, meanReduction(baseI[wl], strexI[wl]), meanReduction(baseD[wl], strexD[wl]))
	}
	if s.aggregated() {
		agg := &metrics.Table{
			Title:  aggTitle("Figure 5: L1 instruction and data MPKI", s.opts.Seeds),
			Header: []string{"workload", "cores", "sched", "I-MPKI", "D-MPKI"},
		}
		for _, c := range cells {
			agg.AddRow(c.wl, c.cores, c.name, summarize(c.reps.impki()), summarize(c.reps.dmpki()))
		}
		s.pushAgg(agg)
	}
	return tab
}

func meanReduction(base, test []float64) float64 {
	if len(base) == 0 || len(base) != len(test) {
		return 0
	}
	var sum float64
	for i := range base {
		if base[i] > 0 {
			sum += (1 - test[i]/base[i]) * 100
		}
	}
	return sum / float64(len(base))
}

// fig6Cell is one Figure 6 row's submitted runs.
type fig6Cell struct {
	wl    string
	cores int
	reps  []*Reps // Base, Next-line, PIF, SLICC, STREX, hybrid
}

// figure6Cells submits every Figure 6 run and returns the rows' batches.
func (s *Suite) figure6Cells() []fig6Cell {
	var cells []fig6Cell
	for _, wl := range WorkloadNames() {
		for _, cores := range s.opts.Cores {
			sets := s.setsSized(wl, s.cellTxns(cores, 10))
			submit := func(tag, id string, mk func() sim.Scheduler, mutate func(*sim.Config)) *Reps {
				label := fmt.Sprintf("fig6/%s/%dc/%s", wl, cores, tag)
				return s.runReps(label, id, sets, cores, mk, mutate)
			}
			cells = append(cells, fig6Cell{wl: wl, cores: cores, reps: []*Reps{
				submit("base", idBase, newBaseline, nil),
				submit("next", idBase, newBaseline, func(c *sim.Config) { c.Prefetcher = prefetch.NextLine }),
				submit("pif", idBase, newBaseline, func(c *sim.Config) { c.Prefetcher = prefetch.PIF }),
				submit("slicc", idSlicc, newSlicc, nil),
				submit("strex", idStrex, newStrex, nil),
				s.runHybridReps(fmt.Sprintf("fig6/%s/%dc/hybrid", wl, cores), sets, cores),
			}})
		}
	}
	return cells
}

// Figure6 reports throughput for Base, Next-line, PIF (upper bound),
// SLICC, STREX and the hybrid, normalized to the 2-core baseline of each
// workload.
func (s *Suite) Figure6() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Figure 6: Relative throughput (normalized to 2-core Base)",
		Header: []string{"workload", "cores", "Base", "Next-line", "PIF-No Overhead", "SLICC", "STREX", "STREX+SLICC"},
	}
	cells := s.figure6Cells()
	var base2 float64
	for i, c := range cells {
		if i == 0 || c.wl != cells[i-1].wl {
			base2 = 0
		}
		tp := make([]float64, len(c.reps))
		for j, rp := range c.reps {
			st := rp.Seed0().Stats
			s.recordReps("fig6", c.wl, tab.Header[2+j], c.cores, rp)
			tp[j] = st.SteadyThroughput(rp.Txns(0), c.cores)
		}
		if base2 == 0 {
			base2 = tp[0] // first core count is the normalization point
		}
		row := []interface{}{c.wl, c.cores}
		for _, v := range tp {
			row = append(row, metrics.Relative(v, base2))
		}
		tab.AddRow(row...)
	}
	tab.AddNote("paper: STREX +35-55%% over Base; next-line between Base and STREX; SLICC wins only at high core counts; hybrid tracks the better of STREX/SLICC")
	if s.aggregated() {
		agg := &metrics.Table{
			Title:  aggTitle("Figure 6: Relative throughput (normalized per replicate to its 2-core Base)", s.opts.Seeds),
			Header: tab.Header,
		}
		var base2Series []float64
		for i, c := range cells {
			if i == 0 || c.wl != cells[i-1].wl {
				// Paired normalization: each replicate is normalized to
				// ITS OWN first-core-count Base run, so the shared
				// trace-draw variance cancels within every ratio.
				base2Series = c.reps[0].throughput(c.cores)
			}
			row := []interface{}{c.wl, c.cores}
			for _, rp := range c.reps {
				row = append(row, pairedSpeedup(rp.throughput(c.cores), base2Series))
			}
			agg.AddRow(row...)
		}
		s.pushAgg(agg)
	}
	return tab
}

// Figure7 reports the TPC-C-10 transaction latency distribution for the
// baseline, STREX with team sizes 2–20 (16 cores), and SLICC on 2–16
// cores. Latencies are bucketed in 2M-cycle bins as in the paper.
func (s *Suite) Figure7() *metrics.Table {
	// Latency is measured "from the moment it enters the transaction
	// queue until it completes" (paper). With a saturated batch that
	// queue-to-completion mean is dominated by throughput; the *service*
	// column (dispatch to completion) isolates the batching delay that
	// grows with team size, which is the paper's Figure 7 effect.
	tab := &metrics.Table{
		Title:  "Figure 7: TPC-C-10 transaction latency distribution (bucket = 2M cycles)",
		Header: []string{"config", "mean (Mcyc)", "service (Mcyc)", "p50 bucket", "p90 bucket", "max bucket"},
	}
	big := s.bigCores()
	// One fixed batch for every row: latency includes queueing delay, so
	// comparing means across configurations requires identical offered
	// load (the largest cell any configuration needs).
	sets := s.setsSized("TPC-C-10", s.cellTxns(big, 20))
	type cell struct {
		label string
		reps  *Reps
	}
	var cells []cell
	submit := func(label, id string, cores int, mk func() sim.Scheduler) {
		cells = append(cells, cell{label, s.runReps("fig7/"+label, id, sets, cores, mk, nil)})
	}
	submit("Baseline", idBase, big, newBaseline)
	for _, ts := range []int{2, 4, 6, 8, 10, 12, 16, 20} {
		submit(fmt.Sprintf("STREX-%dT", ts), strexTeamID(ts), big, newStrexTeam(ts))
	}
	for _, cores := range s.opts.Cores {
		submit(fmt.Sprintf("SLICC-%d", cores), idSlicc, cores, newSlicc)
	}
	for _, c := range cells {
		res := c.reps.Seed0()
		h := metrics.NewHistogram(2.0)
		svc := metrics.NewHistogram(2.0)
		for _, th := range res.Threads {
			h.Observe(float64(th.Latency()) / 1e6)
			svc.Observe(float64(th.FinishCycle-th.StartCycle) / 1e6)
		}
		tab.AddRow(c.label, h.Mean(), svc.Mean(), bucketAt(h, 0.5), bucketAt(h, 0.9), lastBucket(h))
	}
	tab.AddNote("paper means (Mcycles): Base 6.37, STREX-2T 5.96 ... STREX-20T 29.68, SLICC-2 23.00, SLICC-16 7.49; the trend to check is latency growing with team size and shrinking with SLICC core count")
	if s.aggregated() {
		agg := &metrics.Table{
			Title:  aggTitle("Figure 7: TPC-C-10 transaction latency (Mcycles)", s.opts.Seeds),
			Header: []string{"config", "mean (Mcyc)", "service (Mcyc)"},
		}
		for _, c := range cells {
			agg.AddRow(c.label,
				summarize(c.reps.series(meanLatencyMcyc)),
				summarize(c.reps.series(meanServiceMcyc)))
		}
		s.pushAgg(agg)
	}
	return tab
}

// meanLatencyMcyc is a run's mean queue-to-completion latency in
// mega-cycles (the Figure 7 headline metric, one scalar per replicate).
func meanLatencyMcyc(res sim.Result) float64 { return latencyOf(res) / 1e6 }

// meanServiceMcyc is a run's mean dispatch-to-completion latency in
// mega-cycles.
func meanServiceMcyc(res sim.Result) float64 {
	if len(res.Threads) == 0 {
		return 0
	}
	var sum float64
	for _, th := range res.Threads {
		sum += float64(th.FinishCycle - th.StartCycle)
	}
	return sum / float64(len(res.Threads)) / 1e6
}

func bucketAt(h *metrics.Histogram, q float64) string {
	for _, b := range h.Buckets() {
		if h.CumulativeAt(b.Hi-1e-9) >= q {
			return fmt.Sprintf("%.0f-%.0f", b.Lo, b.Hi)
		}
	}
	return "-"
}

func lastBucket(h *metrics.Histogram) string {
	bs := h.Buckets()
	if len(bs) == 0 {
		return "-"
	}
	b := bs[len(bs)-1]
	return fmt.Sprintf("%.0f-%.0f", b.Lo, b.Hi)
}

// Figure8 sweeps the team size on 16 cores for TPC-C-10 and TPC-E,
// reporting throughput relative to the baseline.
func (s *Suite) Figure8() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Figure 8: Throughput vs team size (16 cores, relative to Base)",
		Header: []string{"workload", "team size", "relative throughput"},
	}
	big := s.bigCores()
	type cell struct {
		wl   string
		ts   int // 0 marks the baseline row
		reps *Reps
	}
	var cells []cell
	for _, wl := range []string{"TPC-C-10", "TPC-E"} {
		baseSets := s.setsSized(wl, s.cellTxns(big, 10))
		cells = append(cells, cell{wl, 0,
			s.runReps("fig8/"+wl+"/base", idBase, baseSets, big, newBaseline, nil)})
		for _, ts := range []int{2, 4, 6, 8, 10, 12, 16, 20} {
			sets := s.setsSized(wl, s.cellTxns(big, ts))
			label := fmt.Sprintf("fig8/%s/%dT", wl, ts)
			cells = append(cells, cell{wl, ts,
				s.runReps(label, strexTeamID(ts), sets, big, newStrexTeam(ts), nil)})
		}
	}
	var base float64
	for _, c := range cells {
		tp := c.reps.Seed0().Stats.SteadyThroughput(c.reps.Txns(0), big)
		if c.ts == 0 {
			base = tp
			tab.AddRow(c.wl, "Base", 1.0)
			continue
		}
		tab.AddRow(c.wl, c.ts, metrics.Relative(tp, base))
	}
	tab.AddNote("paper: throughput rises with team size, peaking at +59%% (TPC-C-10) and +80%% (TPC-E) with teams of 20")
	if s.aggregated() {
		agg := &metrics.Table{
			Title:  aggTitle("Figure 8: Throughput vs team size (relative to each replicate's Base)", s.opts.Seeds),
			Header: []string{"workload", "team size", "relative throughput"},
		}
		var baseSeries []float64
		for _, c := range cells {
			if c.ts == 0 {
				baseSeries = c.reps.throughput(big)
				agg.AddRow(c.wl, "Base", pairedSpeedup(baseSeries, baseSeries))
				continue
			}
			agg.AddRow(c.wl, c.ts, pairedSpeedup(c.reps.throughput(big), baseSeries))
		}
		s.pushAgg(agg)
	}
	return tab
}

// Figure9 compares replacement policies at 8 cores: LRU/LIP/BIP/SRRIP/
// BRRIP under the baseline, and STREX combined with LRU/BIP/BRRIP.
func (s *Suite) Figure9() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Figure 9: Replacement policies, I-MPKI at 8 cores",
		Header: []string{"workload", "config", "I-MPKI", "switches", "rel cycles"},
	}
	cores := 8 // the paper's Figure 9 configuration
	if b := s.bigCores(); b < cores {
		cores = b // reduced-scale test suites
	}
	type cell struct {
		wl, config string
		isLRUBase  bool
		reps       *Reps
	}
	var cells []cell
	for _, wl := range []string{"TPC-C-10", "TPC-E"} {
		sets := s.setsSized(wl, s.cellTxns(cores, 10))
		withPolicy := func(pol cache.PolicyKind) func(*sim.Config) {
			return func(c *sim.Config) { c.IPolicy = pol }
		}
		for _, pol := range []cache.PolicyKind{cache.LRU, cache.LIP, cache.BIP, cache.SRRIP, cache.BRRIP} {
			label := fmt.Sprintf("fig9/%s/%s", wl, pol)
			cells = append(cells, cell{wl, pol.String(), pol == cache.LRU,
				s.runReps(label, idBase, sets, cores, newBaseline, withPolicy(pol))})
		}
		for _, pol := range []cache.PolicyKind{cache.LRU, cache.BIP, cache.BRRIP} {
			label := fmt.Sprintf("fig9/%s/strex+%s", wl, pol)
			cells = append(cells, cell{wl, "STREX+" + pol.String(), false,
				s.runReps(label, idStrex, sets, cores, newStrex, withPolicy(pol))})
		}
	}
	var baseBusy uint64
	for _, c := range cells {
		st := c.reps.Seed0().Stats
		if c.isLRUBase {
			baseBusy = st.BusyCycles
		}
		tab.AddRow(c.wl, c.config, st.IMPKI(), st.Switches,
			float64(st.BusyCycles)/float64(baseBusy))
	}
	tab.AddNote("paper: STREX+LRU beats the best standalone policy by >35%% (TPC-C-10) / >45%% (TPC-E); pairing STREX with anti-thrash policies triggers much more frequent context switching — watch the switches column, not only MPKI")
	if s.aggregated() {
		agg := &metrics.Table{
			Title:  aggTitle("Figure 9: Replacement policies, I-MPKI", s.opts.Seeds),
			Header: []string{"workload", "config", "I-MPKI", "rel cycles"},
		}
		busy := func(res sim.Result) float64 { return float64(res.Stats.BusyCycles) }
		var baseBusySeries []float64
		for _, c := range cells {
			if c.isLRUBase {
				baseBusySeries = c.reps.series(busy)
			}
			agg.AddRow(c.wl, c.config, summarize(c.reps.impki()),
				pairedSpeedup(c.reps.series(busy), baseBusySeries))
		}
		s.pushAgg(agg)
	}
	return tab
}

// registryTypes returns the transaction type names of a registered
// workload (driver convenience over bench.Lookup).
func registryTypes(name string) []string {
	info, ok := bench.Lookup(name)
	if !ok {
		panic("experiments: unknown workload " + name)
	}
	return info.TxnTypes
}

// latencyOf is the mean queue-to-completion latency in cycles of a run
// (the Figure 7 aggregate path consumes it via meanLatencyMcyc; tests
// use it directly).
func latencyOf(res sim.Result) float64 {
	if len(res.Threads) == 0 {
		return 0
	}
	var sum float64
	for _, th := range res.Threads {
		sum += float64(th.Latency())
	}
	return sum / float64(len(res.Threads))
}

// instrsOf totals instructions in a set (sanity checks in tests).
func instrsOf(set *workload.Set) uint64 {
	var n uint64
	for _, tx := range set.Txns {
		n += tx.Trace.Instrs
	}
	return n
}

// entryCount totals trace entries (scale diagnostics).
func entryCount(set *workload.Set) int {
	n := 0
	for _, tx := range set.Txns {
		n += tx.Trace.Len()
	}
	return n
}
