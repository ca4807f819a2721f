package strex

import "testing"

func mustTPCC(t testing.TB, txns int) *Workload {
	t.Helper()
	w, err := TPCC(TPCCConfig{Warehouses: 1, Txns: txns, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQuickstartFlow(t *testing.T) {
	w := mustTPCC(t, 30)
	base, err := Run(DefaultConfig(2), w, SchedBaseline)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(DefaultConfig(2), w, SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	if fast.IMPKI >= base.IMPKI {
		t.Fatalf("STREX I-MPKI %.2f not below baseline %.2f", fast.IMPKI, base.IMPKI)
	}
	if fast.ThroughputTPM <= base.ThroughputTPM {
		t.Fatalf("STREX throughput %.2f not above baseline %.2f", fast.ThroughputTPM, base.ThroughputTPM)
	}
	if base.Switches != 0 || fast.Switches == 0 {
		t.Fatalf("switches: base %d strex %d", base.Switches, fast.Switches)
	}
}

func TestAllSchedulersRun(t *testing.T) {
	w := mustTPCC(t, 25)
	for _, k := range []SchedulerKind{SchedBaseline, SchedSTREX, SchedSLICC, SchedHybrid} {
		res, err := Run(DefaultConfig(2), w, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Instrs == 0 || res.Cycles == 0 {
			t.Fatalf("%v: empty result %+v", k, res)
		}
		if len(res.Latencies) != 25 {
			t.Fatalf("%v: %d latencies", k, len(res.Latencies))
		}
	}
}

func TestWorkloadBuilders(t *testing.T) {
	if _, err := TPCC(TPCCConfig{Warehouses: 0, Txns: 5}); err == nil {
		t.Fatal("TPCC accepted zero warehouses")
	}
	if _, err := TPCE(TPCEConfig{Txns: 0}); err == nil {
		t.Fatal("TPCE accepted zero txns")
	}
	if _, err := MapReduce(MapReduceConfig{Tasks: 0}); err == nil {
		t.Fatal("MapReduce accepted zero tasks")
	}
	e, err := TPCE(TPCEConfig{Txns: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "TPC-E" || e.Txns() != 10 || e.Instrs() == 0 {
		t.Fatalf("TPCE workload: %s %d %d", e.Name(), e.Txns(), e.Instrs())
	}
	if len(e.Types()) != 7 {
		t.Fatalf("TPC-E types: %v", e.Types())
	}
	m, err := MapReduce(MapReduceConfig{Tasks: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// FPTable units are clamped to a minimum of 1 (a fraction of a cache
	// still occupies one core under SLICC), so "fits in one L1-I" reads
	// as exactly 1 unit.
	if m.FootprintUnits() > 1 {
		t.Fatalf("MapReduce footprint %.2f units: must fit one L1-I", m.FootprintUnits())
	}
}

func TestConfigValidation(t *testing.T) {
	w := mustTPCC(t, 5)
	if _, err := Run(Config{Cores: 0}, w, SchedBaseline); err == nil {
		t.Fatal("accepted zero cores")
	}
	bad := DefaultConfig(2)
	bad.Policy = "FIFO"
	if _, err := Run(bad, w, SchedBaseline); err == nil {
		t.Fatal("accepted unknown policy")
	}
	bad = DefaultConfig(2)
	bad.Prefetcher = "magic"
	if _, err := Run(bad, w, SchedBaseline); err == nil {
		t.Fatal("accepted unknown prefetcher")
	}
	if _, err := Run(DefaultConfig(2), w, SchedulerKind(99)); err == nil {
		t.Fatal("accepted unknown scheduler")
	}
	// Directory presence masks hold 64 cores.
	if _, err := DefaultConfig(64).build(); err != nil {
		t.Fatalf("refused 64 cores: %v", err)
	}
	if _, err := Run(DefaultConfig(65), w, SchedBaseline); err == nil {
		t.Fatal("accepted 65 cores")
	}
}

func TestPrefetcherOptions(t *testing.T) {
	w := mustTPCC(t, 20)
	base, _ := Run(DefaultConfig(2), w, SchedBaseline)
	cfgN := DefaultConfig(2)
	cfgN.Prefetcher = "next-line"
	next, err := Run(cfgN, w, SchedBaseline)
	if err != nil {
		t.Fatal(err)
	}
	cfgP := DefaultConfig(2)
	cfgP.Prefetcher = "pif"
	pif, err := Run(cfgP, w, SchedBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if next.ThroughputTPM <= base.ThroughputTPM {
		t.Fatalf("next-line (%.2f) should beat base (%.2f)", next.ThroughputTPM, base.ThroughputTPM)
	}
	if pif.ThroughputTPM <= next.ThroughputTPM {
		t.Fatalf("PIF upper bound (%.2f) should beat next-line (%.2f)", pif.ThroughputTPM, next.ThroughputTPM)
	}
}

func TestTeamSizeOption(t *testing.T) {
	w := mustTPCC(t, 40)
	small := DefaultConfig(2)
	small.TeamSize = 2
	large := DefaultConfig(2)
	large.TeamSize = 16
	rs, err := Run(small, w, SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large, w, SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	if rl.IMPKI >= rs.IMPKI {
		t.Fatalf("team 16 I-MPKI %.2f not below team 2 %.2f", rl.IMPKI, rs.IMPKI)
	}
}

func TestHardwareCostBytes(t *testing.T) {
	if got := HardwareCostBytes(false); got != 890.5 {
		t.Fatalf("STREX cost = %v", got)
	}
	if got := HardwareCostBytes(true); got != 1166.5 {
		t.Fatalf("hybrid cost = %v", got)
	}
}

func TestSchedulerKindString(t *testing.T) {
	if SchedBaseline.String() != "Base" || SchedSTREX.String() != "STREX" ||
		SchedSLICC.String() != "SLICC" || SchedHybrid.String() != "STREX+SLICC" {
		t.Fatal("labels wrong")
	}
}

func TestRunsAreReproducible(t *testing.T) {
	w := mustTPCC(t, 20)
	a, _ := Run(DefaultConfig(2), w, SchedSTREX)
	b, _ := Run(DefaultConfig(2), w, SchedSTREX)
	if a.Cycles != b.Cycles || a.IMPKI != b.IMPKI {
		t.Fatal("identical runs differ")
	}
}
