// Package bench is the central workload registry: one place that knows
// every benchmark the simulator can generate, how to build it, and what
// STREX is expected to do on it. The facade (strex.Workloads,
// strex.BuildWorkload), both CLIs and the experiment drivers all
// consume this registry instead of hard-coding per-workload
// constructors, so adding a benchmark is one entry here plus its
// generator package — nothing else in the tree changes.
//
// The registry spans the footprint axis the paper's argument lives on:
// TPC-C (11–14 L1-I units per type, STREX's best case), TPC-E (5–9),
// TATP (3.5–5.5), Voter (5, single-type), SmallBank (0.7–0.9, the
// stress case), MapReduce (<1, the control) and the Synth generator,
// whose footprint is a continuous dial.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"strex/internal/bench/smallbank"
	"strex/internal/bench/tatp"
	"strex/internal/bench/voter"
	"strex/internal/mapreduce"
	"strex/internal/synth"
	"strex/internal/tpcc"
	"strex/internal/tpce"
	"strex/internal/workload"
)

// Options parameterizes Build. The zero value selects every default.
type Options struct {
	// Seed drives workload generation and is used verbatim: unlike the
	// simulator's Config.Seed, 0 is a valid seed distinct from 1, so
	// callers that derive per-run seeds (runner.DeriveSeed) never alias
	// two runs onto one workload.
	Seed uint64
	// Scale is the benchmark-specific size knob; 0 selects the entry's
	// default (see Info.ScaleHint for the unit).
	Scale int
	// Synth overrides the Synth generator's parameters. Its Seed field
	// is ignored; Options.Seed is authoritative for every entry.
	Synth synth.Params
}

// Info describes a registered workload.
type Info struct {
	// Name is the canonical registry key (e.g. "TPC-C-10").
	Name string
	// Aliases are accepted CLI spellings (e.g. "tpcc10").
	Aliases []string
	// Description is a one-line summary for help output.
	Description string
	// TxnTypes lists the transaction type labels.
	TxnTypes []string
	// ScaleHint documents what Options.Scale means for this entry.
	ScaleHint string
	// STREXWins records the paper-model expectation: true when every
	// per-type instruction footprint exceeds one 32KB L1-I unit, the
	// precondition for stratified execution to pay off.
	STREXWins bool
}

type entry struct {
	info  Info
	build func(Options) workload.Generator
}

// registry is ordered: fixed benchmarks by descending footprint, the
// synthetic generator last.
var registry = []entry{
	{
		info: Info{
			Name:        "TPC-C-1",
			Aliases:     []string{"tpcc1"},
			Description: "Wholesale supplier, 1 warehouse; 5 txn types, 11-14 L1-I units each",
			TxnTypes:    tpcc.TypeNames(),
			ScaleHint:   "warehouses (default 1)",
			STREXWins:   true,
		},
		build: func(o Options) workload.Generator {
			return tpcc.New(tpcc.Config{Warehouses: scaleOr(o.Scale, 1), Seed: o.Seed})
		},
	},
	{
		info: Info{
			Name:        "TPC-C-10",
			Aliases:     []string{"tpcc10"},
			Description: "Wholesale supplier, 10 warehouses; same code footprint, ~10x data",
			TxnTypes:    tpcc.TypeNames(),
			ScaleHint:   "warehouses (default 10)",
			STREXWins:   true,
		},
		build: func(o Options) workload.Generator {
			return tpcc.New(tpcc.Config{Warehouses: scaleOr(o.Scale, 10), Seed: o.Seed})
		},
	},
	{
		info: Info{
			Name:        "TPC-E",
			Aliases:     []string{"tpce"},
			Description: "Brokerage house; 7 txn types, 5-9 L1-I units each",
			TxnTypes:    tpce.TypeNames(),
			ScaleHint:   "unused",
			STREXWins:   true,
		},
		build: func(o Options) workload.Generator {
			return tpce.New(tpce.Config{Seed: o.Seed})
		},
	},
	{
		info: Info{
			Name:        "TATP",
			Aliases:     []string{"tatp"},
			Description: "Telecom HLR; 7 short read-heavy txn types, 3.5-5.5 L1-I units each",
			TxnTypes:    tatp.TypeNames(),
			ScaleHint:   "subscribers (default 2000)",
			STREXWins:   true,
		},
		build: func(o Options) workload.Generator {
			return tatp.New(tatp.Config{Subscribers: o.Scale, Seed: o.Seed})
		},
	},
	{
		info: Info{
			Name:        "Voter",
			Aliases:     []string{"voter"},
			Description: "Telephone voting; a single 5-unit Vote type (degenerate team formation)",
			TxnTypes:    voter.TypeNames(),
			ScaleHint:   "phone numbers (default 5000)",
			STREXWins:   true,
		},
		build: func(o Options) workload.Generator {
			return voter.New(voter.Config{Phones: o.Scale, Seed: o.Seed})
		},
	},
	{
		info: Info{
			Name:        "SmallBank",
			Aliases:     []string{"smallbank", "sb"},
			Description: "Checking/savings bank on the lite kernel; 6 sub-unit txn types (STREX stress case)",
			TxnTypes:    smallbank.TypeNames(),
			ScaleHint:   "customers (default 1000)",
			STREXWins:   false,
		},
		build: func(o Options) workload.Generator {
			return smallbank.New(smallbank.Config{Customers: o.Scale, Seed: o.Seed})
		},
	},
	{
		info: Info{
			Name:        "MapReduce",
			Aliases:     []string{"mapreduce", "mr"},
			Description: "Data-analytics control; code fits one L1-I, STREX must not hurt",
			TxnTypes:    mapreduce.TypeNames(),
			ScaleHint:   "input blocks per task (default 600)",
			STREXWins:   false,
		},
		build: func(o Options) workload.Generator {
			return mapreduce.New(mapreduce.Config{Seed: o.Seed, BlocksPerTask: o.Scale})
		},
	},
	{
		info: Info{
			Name:        "Synth",
			Aliases:     []string{"synth"},
			Description: "Synthetic generator; footprint dialable 0.5-16 L1-I units via Options.Synth",
			TxnTypes:    synth.TypeNames(synth.DefaultParams().Types),
			ScaleHint:   "transaction types (default 4); fine knobs via Options.Synth",
			STREXWins:   true, // at the 4-unit default; below ~1 unit it stops winning
		},
		build: func(o Options) workload.Generator {
			p := o.Synth
			if o.Scale > 0 {
				p.Types = o.Scale
			}
			p.Seed = o.Seed
			return synth.New(p)
		},
	},
}

// scaleOr returns scale, or def when scale is unset.
func scaleOr(scale, def int) int {
	if scale > 0 {
		return scale
	}
	return def
}

// generations counts workload generations (Generate/GenerateTyped calls
// on registry-built generators) process-wide. The run cache's warm-path
// guarantee — a cached rerun performs *zero* generations — is asserted
// against this counter, and the CLIs report it so cache effectiveness
// is observable.
var generations atomic.Int64

// Generations returns the number of workload generations performed by
// registry-built generators since process start.
func Generations() int64 { return generations.Load() }

// counted wraps a generator to maintain the generation counter.
type counted struct{ g workload.Generator }

func (c counted) Name() string        { return c.g.Name() }
func (c counted) TypeNames() []string { return c.g.TypeNames() }

func (c counted) Generate(n int) *workload.Set {
	generations.Add(1)
	return c.g.Generate(n)
}

func (c counted) GenerateTyped(typeID, n int) *workload.Set {
	generations.Add(1)
	return c.g.GenerateTyped(typeID, n)
}

// Workloads lists every registered workload in registry order.
func Workloads() []Info {
	out := make([]Info, len(registry))
	for i, e := range registry {
		out[i] = e.info
	}
	return out
}

// Names returns the canonical workload names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.info.Name
	}
	return out
}

// Lookup resolves a canonical name or alias, case-insensitively.
func Lookup(name string) (Info, bool) {
	e, ok := lookup(name)
	if !ok {
		return Info{}, false
	}
	return e.info, true
}

func lookup(name string) (entry, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, e := range registry {
		if strings.ToLower(e.info.Name) == n {
			return e, true
		}
		for _, a := range e.info.Aliases {
			if a == n {
				return e, true
			}
		}
	}
	return entry{}, false
}

// TypeID resolves a transaction type name for a registered workload —
// the single implementation of that lookup for the CLIs and the
// experiment drivers.
func TypeID(workload, typeName string) (int, error) {
	e, ok := lookup(workload)
	if !ok {
		return 0, fmt.Errorf("bench: unknown workload %q (have %s)", workload, strings.Join(allNames(), ", "))
	}
	for i, n := range e.info.TxnTypes {
		if n == typeName {
			return i, nil
		}
	}
	return 0, fmt.Errorf("bench: workload %s has no type %q (have %s)",
		e.info.Name, typeName, strings.Join(e.info.TxnTypes, ", "))
}

// Build constructs a fresh generator for the named workload. Generators
// are stateful (their mix RNG advances across Generate calls), so every
// Build returns an independent instance; building twice with the same
// Options and generating the same count yields byte-identical sets.
func Build(name string, opts Options) (workload.Generator, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(allNames(), ", "))
	}
	return counted{e.build(opts)}, nil
}

// BuildSet builds a generator and generates a validated set of exactly
// txns transactions — the one-call path the facade and CLIs use. The
// count is a checked contract: run-cache keys hash the requested count
// before any set exists, so a generator that yields a different one is
// an error, never a silently mis-keyed set.
func BuildSet(name string, txns int, opts Options) (*workload.Set, error) {
	if txns <= 0 {
		return nil, fmt.Errorf("bench: %s needs a positive transaction count, got %d", name, txns)
	}
	g, err := Build(name, opts)
	if err != nil {
		return nil, err
	}
	set := g.Generate(txns)
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(set.Txns) != txns {
		return nil, fmt.Errorf("bench: %s generated %d transactions, want %d", name, len(set.Txns), txns)
	}
	return set, nil
}

// allNames returns every accepted spelling — canonical names and
// aliases — for error messages.
func allNames() []string {
	var out []string
	for _, e := range registry {
		out = append(out, e.info.Name)
		out = append(out, e.info.Aliases...)
	}
	sort.Strings(out)
	return out
}
