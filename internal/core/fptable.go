package core

import (
	"sort"

	"strex/internal/codegen"
	"strex/internal/trace"
	"strex/internal/workload"
)

// FPTable is the transaction footprint size table of Section 5.5: the
// average instruction footprint of each transaction type, in L1-I size
// units. The hybrid mechanism consults it (together with the available
// core count) to pick STREX or SLICC (ChooseSLICC).
//
// The hybrid is a choice, not a scheduler of its own: the paper builds
// the table once, at startup or reconfiguration (the profiling phase is
// ~0.2% of execution), then runs the picked mechanism unchanged. So
// callers profile a set once, pick, and submit the run as plain SLICC
// or STREX — at the paper's window of 30 and team size of 10 — under
// that mechanism's own identity.
type FPTable struct {
	rows []FPRow // ascending Header
}

// FPRow is one profiled transaction type.
type FPRow struct {
	Header uint32 // the type's header instruction block
	Name   string // the type's name ("" when the set does not name it)
	Units  int    // average footprint in L1-I units, at least 1
}

// HybridSamples is the number of transactions per type the hybrid's
// profiling phase averages.
const HybridSamples = 3

// NewFPTable builds a table from its rows (as Rows returns them), for
// callers that stored a measured table and read it back.
func NewFPTable(rows []FPRow) *FPTable {
	f := &FPTable{rows: append([]FPRow(nil), rows...)}
	sort.Slice(f.rows, func(i, j int) bool { return f.rows[i].Header < f.rows[j].Header })
	return f
}

// MeasureFPTable profiles a workload set and records per-type footprints.
//
// The paper measures footprints by running a profiling phase under SLICC
// with all phaseID tables reset, tagging every block the sample thread
// touches and counting blocks whose tag had to change; because a block
// stays tagged once touched (across all cores), the count equals the
// number of *unique* instruction blocks the transaction touches. We
// compute that quantity directly from the sample's trace, then round to
// L1-I units exactly as the paper does. samplesPerType bounds how many
// instances contribute to each type's average (the paper samples one
// random transaction per type per profiling phase; averaging a few
// samples just reduces variance). One block set, cleared between
// samples, serves every sample.
func MeasureFPTable(set *workload.Set, samplesPerType int) *FPTable {
	if samplesPerType <= 0 {
		samplesPerType = 1
	}
	type acc struct {
		sum, cnt int
	}
	var rows []FPRow
	var accs []acc
	index := make(map[uint32]int) // header -> row
	seen := make(map[uint32]struct{})
	for _, tx := range set.Txns {
		i, ok := index[tx.Header]
		if !ok {
			i = len(rows)
			index[tx.Header] = i
			rows = append(rows, FPRow{Header: tx.Header})
			accs = append(accs, acc{})
		}
		if accs[i].cnt >= samplesPerType {
			continue
		}
		clear(seen)
		for _, e := range tx.Trace.Entries {
			if e.Kind == trace.KInstr {
				seen[e.Block] = struct{}{}
			}
		}
		accs[i].sum += len(seen)
		accs[i].cnt++
		if tx.Type >= 0 && tx.Type < len(set.Types) {
			rows[i].Name = set.Types[tx.Type]
		}
	}
	for i := range rows {
		rows[i].Units = codegen.Units(accs[i].sum / accs[i].cnt)
		if rows[i].Units < 1 {
			rows[i].Units = 1
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Header < rows[j].Header })
	return &FPTable{rows: rows}
}

// Rows returns the table's rows in ascending header order.
func (f *FPTable) Rows() []FPRow { return append([]FPRow(nil), f.rows...) }

// Units returns the recorded footprint for a transaction header, in L1-I
// units, and whether the type was profiled.
func (f *FPTable) Units(header uint32) (int, bool) {
	i := sort.Search(len(f.rows), func(i int) bool { return f.rows[i].Header >= header })
	if i < len(f.rows) && f.rows[i].Header == header {
		return f.rows[i].Units, true
	}
	return 0, false
}

// Types returns the number of profiled types.
func (f *FPTable) Types() int { return len(f.rows) }

// Entry is one FPTable row (for reporting Table 3).
type Entry struct {
	Name  string
	Units int
}

// Entries returns the table sorted by type name.
func (f *FPTable) Entries() []Entry {
	out := make([]Entry, 0, len(f.rows))
	for _, r := range f.rows {
		out = append(out, Entry{Name: r.Name, Units: r.Units})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AverageUnits returns the mean footprint across profiled types —
// the aggregate-capacity requirement the hybrid compares against the
// core count.
func (f *FPTable) AverageUnits() float64 {
	if len(f.rows) == 0 {
		return 0
	}
	total := 0
	for _, r := range f.rows {
		total += r.Units
	}
	return float64(total) / float64(len(f.rows))
}

// ChooseSLICC implements the hybrid decision (Section 5.5): use SLICC
// when the aggregate L1-I capacity (one unit per core) fits the
// workload's footprint, i.e. when cores ≥ ⌈average footprint⌉; otherwise
// use STREX. With the paper's Table 3 values this selects SLICC for
// TPC-C only above 12 cores and for TPC-E at 8 cores and above —
// matching Section 5.5.1.
func (f *FPTable) ChooseSLICC(cores int) bool {
	avg := f.AverageUnits()
	if avg == 0 {
		return false
	}
	need := int(avg)
	if avg > float64(need) {
		need++
	}
	return cores >= need
}
