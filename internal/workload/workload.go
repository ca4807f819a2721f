// Package workload defines the common representation of a generated
// transaction workload: a fixed, deterministic set of transactions, each
// with a fully materialized execution trace. Generating the set once and
// replaying it under every scheduler guarantees that Baseline, STREX,
// SLICC and the hybrid all execute the *same* work, so throughput and
// MPKI comparisons are apples-to-apples — the same property the paper
// gets from replaying identical QTrace samples.
package workload

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/trace"
)

// Txn is one generated transaction instance.
type Txn struct {
	ID     int
	Type   int    // index into Set.Types
	Header uint32 // instruction block of the transaction's entry function.
	// STREX groups same-type transactions "by examining the address of
	// the header instructions" (Section 4.3); schedulers must use Header,
	// not Type, so grouping stays programmer-transparent.
	Trace *trace.Buffer
}

// Set is a generated workload: the shared code layout plus the
// transaction instances in arrival order.
//
// Ownership rule: once generated, a Set is read-only. sim.Engine wraps
// each Txn in a per-run Thread with its own trace cursor and never
// writes through the Set, so one Set may be replayed by any number of
// concurrent runs (internal/runner relies on this). Code that wants to
// rewrite transactions or traces after generation must work on a
// Clone(), never on a Set that may be shared — the experiment drivers'
// set cache and trace-sharing helpers (replicate, profiling sets) all
// alias Txn and Buffer pointers.
type Set struct {
	Name   string
	Types  []string
	Layout *codegen.Layout
	Txns   []*Txn
	// DataBlocks is the database size in 64B blocks (diagnostics).
	DataBlocks int
}

// ReplicateIdentical builds the "identical transactions" derivation of
// a set: every transaction replicated times times, replicas of the same
// instance interleaved so they arrive together, all sharing the parent's
// trace buffers (the set stays read-only, so sharing is safe). It is a
// pure function of (parent content, times) — the experiment suite's
// Figure 4 study and the sharding workers both derive the set through
// this one function, which is what keeps the derived set's content
// address ("+replicateN" on the parent's) honest across processes.
func ReplicateIdentical(s *Set, times int) *Set {
	out := &Set{Name: s.Name + "-identical", Types: s.Types, Layout: s.Layout}
	id := 0
	for _, tx := range s.Txns {
		for r := 0; r < times; r++ {
			out.Txns = append(out.Txns, &Txn{
				ID: id, Type: tx.Type, Header: tx.Header, Trace: tx.Trace,
			})
			id++
		}
	}
	out.DataBlocks = s.DataBlocks
	return out
}

// Clone returns a deep copy of the set: fresh Txn structs and fresh
// trace buffers (entries included), sharing only the immutable Layout
// and the Types slice. Mutating the clone cannot be observed through the
// original, so a clone is the required starting point for any post-
// generation rewriting of a set that concurrent runs might still replay.
func (s *Set) Clone() *Set {
	out := &Set{
		Name:       s.Name,
		Types:      s.Types,
		Layout:     s.Layout,
		DataBlocks: s.DataBlocks,
		Txns:       make([]*Txn, len(s.Txns)),
	}
	for i, t := range s.Txns {
		out.Txns[i] = &Txn{ID: t.ID, Type: t.Type, Header: t.Header, Trace: t.Trace.Clone()}
	}
	return out
}

// Instrs returns the total instruction count across all transactions.
func (s *Set) Instrs() uint64 {
	var n uint64
	for _, t := range s.Txns {
		n += t.Trace.Instrs
	}
	return n
}

// TypeCounts returns how many instances of each type the set contains.
func (s *Set) TypeCounts() []int {
	counts := make([]int, len(s.Types))
	for _, t := range s.Txns {
		counts[t.Type]++
	}
	return counts
}

// Validate checks structural invariants of a generated set (test and
// generator support): every transaction has a non-empty trace, a known
// type, and instruction blocks strictly below codegen.DataBase.
func (s *Set) Validate() error {
	if len(s.Txns) == 0 {
		return fmt.Errorf("workload %s: empty set", s.Name)
	}
	for i, t := range s.Txns {
		if t.ID != i {
			return fmt.Errorf("workload %s: txn %d has ID %d", s.Name, i, t.ID)
		}
		if t.Type < 0 || t.Type >= len(s.Types) {
			return fmt.Errorf("workload %s: txn %d has unknown type %d", s.Name, i, t.Type)
		}
		if t.Trace == nil || t.Trace.Len() == 0 {
			return fmt.Errorf("workload %s: txn %d has empty trace", s.Name, i)
		}
		if t.Header >= codegen.DataBase {
			return fmt.Errorf("workload %s: txn %d header %d in data space", s.Name, i, t.Header)
		}
		for _, e := range t.Trace.Entries {
			isInstr := e.Kind == trace.KInstr
			inISpace := e.Block < codegen.DataBase
			if isInstr != inISpace {
				return fmt.Errorf("workload %s: txn %d entry in wrong address space: %+v", s.Name, i, e)
			}
		}
	}
	return nil
}

// Generator is implemented by the workload packages (tpcc, tpce,
// mapreduce).
type Generator interface {
	// Name identifies the workload (e.g. "TPC-C-10").
	Name() string
	// Generate produces n transactions drawn from the benchmark mix.
	Generate(n int) *Set
	// GenerateTyped produces n transactions all of the given type
	// (used by the Figure 2 / Figure 4 experiments).
	GenerateTyped(typeID, n int) *Set
	// TypeNames lists the transaction types.
	TypeNames() []string
}
