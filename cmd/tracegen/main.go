// Command tracegen generates, persists and inspects workload traces —
// the capture half of the trace-replay methodology. It can emit any
// registered workload as a versioned .strextrace artifact (-o), print
// the header of an existing artifact without decoding it (-info),
// fully verify one (-verify: checksum, structural invariants), dump
// per-transaction summaries or raw entries, and run the Figure 2
// overlap analysis.
//
// Usage:
//
//	tracegen -workload tpcc1 -type NewOrder -n 4
//	tracegen -workload tatp -n 200 -seed 9 -o tatp.strextrace
//	tracegen -info tatp.strextrace
//	tracegen -verify tatp.strextrace
//	tracegen -workload tpce -n 10 -dump | head -50
//	tracegen -workload tpcc1 -type Payment -n 16 -overlap
//
// All failures (unknown workload or type, unreadable or corrupt files)
// exit non-zero.
package main

import (
	"flag"
	"fmt"
	"os"

	"strex/internal/bench"
	"strex/internal/codegen"
	"strex/internal/experiments"
	"strex/internal/tracefile"
	"strex/internal/workload"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func main() {
	wl := flag.String("workload", "tpcc1", "registry workload name or alias")
	typeName := flag.String("type", "", "generate only this transaction type")
	n := flag.Int("n", 5, "transactions to generate")
	seed := flag.Uint64("seed", 1, "generation seed")
	scale := flag.Int("scale", 0, "benchmark-specific scale knob (0 = workload default)")
	out := flag.String("o", "", "write the set to this .strextrace file")
	info := flag.String("info", "", "print the header of a .strextrace file and exit")
	verify := flag.String("verify", "", "fully verify a .strextrace file (checksum + invariants) and exit")
	dump := flag.Bool("dump", false, "dump raw trace entries")
	overlap := flag.Bool("overlap", false, "run the Figure 2 overlap analysis on the set")
	flag.Parse()

	if *info != "" {
		if err := printInfo(*info); err != nil {
			fail(err)
		}
		return
	}
	if *verify != "" {
		if err := verifyFile(*verify); err != nil {
			fail(err)
		}
		return
	}

	set, err := generate(*wl, *typeName, *n, *seed, *scale)
	if err != nil {
		fail(err)
	}

	if *out != "" {
		typeID := -1
		if *typeName != "" {
			typeID, _ = bench.TypeID(*wl, *typeName) // generate already validated it
		}
		prov := tracefile.Provenance{Workload: set.Name, Seed: *seed, Scale: *scale, TypeID: typeID}
		if err := tracefile.Save(*out, set, prov); err != nil {
			fail(err)
		}
		st, err := os.Stat(*out)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s: %d txns, %d Kinstr, %d bytes (format v%d)\n",
			*out, len(set.Txns), set.Instrs()/1000, st.Size(), tracefile.Version)
	}

	// -dump and -overlap still apply to an emitted set; the per-txn
	// summary is skipped when -o was the point of the invocation.
	if *out == "" || *dump {
		summarize(set, *dump)
	}

	if *overlap {
		series := experiments.OverlapSeries(set, 32, 100)
		sum := experiments.Summarize(series)
		fmt.Printf("overlap (Figure 2 analysis over %d intervals): >=5 caches %.0f%%, >=10 caches %.0f%%, single %.0f%%\n",
			len(series), sum.AtLeast5*100, sum.AtLeast10*100, sum.Single*100)
	}
}

// generate builds a validated set from the registry, mixed or typed.
func generate(name, typeName string, n int, seed uint64, scale int) (*workload.Set, error) {
	if typeName == "" {
		return bench.BuildSet(name, n, bench.Options{Seed: seed, Scale: scale})
	}
	typ, err := bench.TypeID(name, typeName)
	if err != nil {
		return nil, err
	}
	gen, err := bench.Build(name, bench.Options{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	set := gen.GenerateTyped(typ, n)
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

func summarize(set *workload.Set, dump bool) {
	fmt.Printf("workload %s: %d txns, %d Kinstr total, data %d blocks\n",
		set.Name, len(set.Txns), set.Instrs()/1000, set.DataBlocks)
	for _, tx := range set.Txns {
		fmt.Printf("txn %3d %-12s instrs=%-8d entries=%-6d iblocks=%-5d (%.1f L1-I units) loads=%d stores=%d\n",
			tx.ID, set.Types[tx.Type], tx.Trace.Instrs, tx.Trace.Len(),
			tx.Trace.UniqueIBlocks(),
			float64(tx.Trace.UniqueIBlocks())/float64(codegen.L1IUnitBlocks),
			tx.Trace.Loads, tx.Trace.Stores)
		if dump {
			for _, e := range tx.Trace.Entries {
				fmt.Printf("  %s block=%d n=%d\n", e.Kind, e.Block, e.N)
			}
		}
	}
}

// printInfo reads only the header — O(1) in the payload size.
func printInfo(path string) error {
	m, err := tracefile.Open(path)
	if err != nil {
		return err
	}
	fmt.Printf("file          %s\n", path)
	fmt.Printf("format        strextrace v%d\n", m.FormatVersion)
	fmt.Printf("workload      %s (seed %d, scale %d)\n", m.Provenance.Workload, m.Provenance.Seed, m.Provenance.Scale)
	if m.Provenance.TypeID >= 0 && m.Provenance.TypeID < len(m.Types) {
		fmt.Printf("typed         %s only (type %d)\n", m.Types[m.Provenance.TypeID], m.Provenance.TypeID)
	}
	if m.Provenance.Extra != "" {
		fmt.Printf("gen params    %s\n", m.Provenance.Extra)
	}
	fmt.Printf("set           %s\n", m.SetName)
	fmt.Printf("txns          %d across %d types\n", m.Txns, len(m.Types))
	fmt.Printf("entries       %d (%d instrs, %d loads, %d stores)\n", m.Entries, m.Instrs, m.Loads, m.Stores)
	fmt.Printf("instr runs    %d\n", m.InstrRuns)
	fmt.Printf("data blocks   %d\n", m.DataBlocks)
	fmt.Printf("code layout   %d functions\n", len(m.Funcs))
	return nil
}

// verifyFile decodes the whole file: CRC, header totals, and workload
// structural invariants.
func verifyFile(path string) error {
	set, m, err := tracefile.Load(path)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	fmt.Printf("OK %s: %d txns, %d entries, %d instrs, checksum and invariants verified (format v%d)\n",
		path, len(set.Txns), m.Entries, m.Instrs, m.FormatVersion)
	return nil
}
