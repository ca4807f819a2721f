package experiments

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/core"
	"strex/internal/memsys"
	"strex/internal/metrics"
	"strex/internal/workload"
)

// Table1 echoes the workload inventory (paper Table 1), with the scaled
// sizes this reproduction actually uses.
func (s *Suite) Table1() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Table 1: Workloads",
		Header: []string{"workload", "description", "paper size", "repro data blocks", "repro code KB"},
	}
	row := func(name, desc, paper string, dataBlocks, codeBlocks int) {
		tab.AddRow(name, desc, paper,
			dataBlocks, codeBlocks*codegen.BlockBytes/1024)
	}
	c1 := s.Set("TPC-C-1")
	row("TPC-C-1", "Wholesale supplier, 1 warehouse", "84 MB", c1.DataBlocks, c1.Layout.CodeBlocks())
	c10 := s.Set("TPC-C-10")
	row("TPC-C-10", "Wholesale supplier, 10 warehouses", "1 GB", c10.DataBlocks, c10.Layout.CodeBlocks())
	e := s.Set("TPC-E")
	row("TPC-E", "Brokerage house, 1000 customers", "20 GB", e.DataBlocks, e.Layout.CodeBlocks())
	mr := s.Set("MapReduce")
	row("MapReduce", "Data analytics over text", "12 GB", mr.DataBlocks, mr.Layout.CodeBlocks())
	tab.AddNote("data sizes are scaled down uniformly; the TPC-C-10:TPC-C-1 ratio (~10x) and the code footprints (Table 3) are preserved")
	return tab
}

// Table2 echoes the simulated system parameters actually in effect.
func (s *Suite) Table2() *metrics.Table {
	lat := memsys.DefaultLatencies()
	tab := &metrics.Table{
		Title:  "Table 2: System parameters",
		Header: []string{"component", "value"},
	}
	tab.AddRow("Cores", "N in-order trace-replay cores, 1 IPC (paper: 6-wide OoO)")
	tab.AddRow("Private L1", "32KB, 64B blocks, 8-way, LRU default")
	tab.AddRow("L1 load-to-use", fmt.Sprintf("%d cycles in the paper; not modelled (an L1 hit costs its 1-cycle issue slot)", lat.L1Hit))
	tab.AddRow("L2 NUCA", "shared, 1MB per core, 16-way, 64B blocks")
	tab.AddRow("L2 hit latency", fmt.Sprintf("%d cycles + 2x torus hops", lat.L2Hit))
	tab.AddRow("Interconnect", fmt.Sprintf("2D torus, %d-cycle hop", lat.HopCycles))
	tab.AddRow("Memory", fmt.Sprintf("%d cycles (42ns at 2.5GHz)", lat.Mem))
	tab.AddRow("Coherence", fmt.Sprintf("MESI-style directory invalidation, %d-cycle round", lat.Coherence))
	tab.AddRow("Context switch", fmt.Sprintf("%d cycles (save/restore via local L2 slice)", lat.SwitchCost))
	tab.AddRow("Migration", fmt.Sprintf("%d cycles (SLICC thread transfer)", lat.MigrateCost))
	tab.AddRow("Txn pool window", "30 (STREX/SLICC visibility)")
	tab.AddRow("STREX team size", "10 (default; 2-20 swept)")
	tab.AddRow("SLICC threads", "up to 2N in flight")
	return tab
}

// Table3 reproduces the FPTable: per-type instruction footprints in L1-I
// size units, measured by the hybrid's profiling mechanism.
func (s *Suite) Table3() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Table 3: FPTable — instruction footprint per transaction (L1-I units)",
		Header: []string{"workload", "txn type", "measured units", "paper units"},
	}
	paper := map[string]int{
		"Delivery": 12, "NewOrder": 14, "OrderStatus": 11, "Payment": 14, "StockLevel": 11,
		"Broker": 7, "Customer": 9, "Market": 9, "Security": 5,
		"Tr_Stat": 9, "Tr_Upd": 8, "Tr_Look": 8,
	}
	// Paper labels OrderStatus/StockLevel as Order/Stock; we keep the
	// full names. Profiling samples each type explicitly, as the paper's
	// per-type profiling phase does (a small mixed sample might miss the
	// 4%-mix types entirely).
	for _, wl := range []string{"TPC-C", "TPC-E"} {
		reg := "TPC-C-1"
		if wl == "TPC-E" {
			reg = "TPC-E"
		}
		fp := core.MeasureFPTable(s.profilingSet(reg), 4)
		for _, e := range fp.Entries() {
			want := "-"
			if p, ok := paper[e.Name]; ok {
				want = fmt.Sprintf("%d", p)
			}
			tab.AddRow(wl, e.Name, e.Units, want)
		}
		tab.AddNote("%s average footprint: %.1f units", wl, fp.AverageUnits())
	}
	return tab
}

// profilingSet builds a set with `samples` instances of every type of a
// registered workload, used only for FPTable measurement. The per-type
// samples come from TypedSet, so they are cached like every other set.
func (s *Suite) profilingSet(reg string) *workload.Set {
	const samples = 4
	names := registryTypes(reg)
	out := &workload.Set{Name: "profiling", Types: names}
	id := 0
	for _, name := range names {
		typed := s.TypedSet(reg, name, samples)
		for _, tx := range typed.Txns {
			out.Txns = append(out.Txns, &workload.Txn{
				ID: id, Type: tx.Type, Header: tx.Header, Trace: tx.Trace,
			})
			id++
		}
	}
	return out
}

// Table4 reports the hardware storage cost breakdown.
func (s *Suite) Table4() *metrics.Table {
	h := core.DefaultHardwareCost()
	tab := &metrics.Table{
		Title:  "Table 4: Hardware component storage costs (per core)",
		Header: []string{"component", "bits", "bytes"},
	}
	tab.AddRow("Thread scheduler (queue + phaseID + PIDT)",
		h.ThreadSchedulerBits(), float64(h.ThreadSchedulerBits())/8)
	tab.AddRow("Team formation (management table)",
		h.TeamFormationBits(), float64(h.TeamFormationBits())/8)
	strexTotal := h.TotalBytes()
	tab.AddRow("STREX total", h.TotalBits(), strexTotal)
	h.IncludeHybrid = true
	tab.AddRow("Hybrid total (adds SLICC cache monitor)", h.TotalBits(), h.TotalBytes())
	tab.AddNote("paper: thread scheduler 5324 bits (665.5B), team formation 1800 bits (225B), hybrid 1166.5B; the per-core thread scheduler unit is %.1f%% of PIF's ~40KB (the paper's <2%% claim)",
		float64(core.DefaultHardwareCost().ThreadSchedulerBits())/8/core.PIFStorageBytes*100)
	return tab
}

// All runs every figure and table in paper order.
func (s *Suite) All() []*metrics.Table {
	return []*metrics.Table{
		s.Table1(), s.Table2(),
		s.Figure2(), s.Figure4(), s.Figure5(), s.Figure6(),
		s.Figure7(), s.Figure8(),
		s.Table3(), s.Figure9(), s.Table4(),
	}
}
