package bench

import (
	"testing"

	"strex/internal/synth"
	"strex/internal/workload"
	"strex/internal/xrand"
)

func TestRegistryListsEveryWorkload(t *testing.T) {
	infos := Workloads()
	if len(infos) < 7 {
		t.Fatalf("registry has %d workloads, want >= 7", len(infos))
	}
	want := []string{"TPC-C-1", "TPC-C-10", "TPC-E", "MapReduce", "TATP", "SmallBank", "Voter", "Synth"}
	have := map[string]Info{}
	for _, in := range infos {
		have[in.Name] = in
	}
	for _, name := range want {
		in, ok := have[name]
		if !ok {
			t.Errorf("workload %s not registered", name)
			continue
		}
		if in.Description == "" || len(in.TxnTypes) == 0 || len(in.Aliases) == 0 {
			t.Errorf("%s has incomplete metadata: %+v", name, in)
		}
	}
}

func TestLookupResolvesAliases(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"tpcc10", "TPC-C-10"},
		{"TPC-C-10", "TPC-C-10"},
		{"tpc-c-10", "TPC-C-10"},
		{"sb", "SmallBank"},
		{"mr", "MapReduce"},
		{" voter ", "Voter"},
		{"SYNTH", "Synth"},
	} {
		info, ok := Lookup(tc.in)
		if !ok || info.Name != tc.want {
			t.Errorf("Lookup(%q) = (%v, %v), want %s", tc.in, info.Name, ok, tc.want)
		}
	}
	if _, ok := Lookup("tpch"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
}

func TestBuildRejectsUnknownAndEmpty(t *testing.T) {
	if _, err := Build("nope", Options{}); err == nil {
		t.Fatal("Build accepted an unknown workload")
	}
	if _, err := BuildSet("TATP", 0, Options{}); err == nil {
		t.Fatal("BuildSet accepted zero transactions")
	}
}

// TestBuildSetYieldsRequestedCount pins the count contract run-cache
// keys rely on: they hash the requested count before any set exists,
// so every registered generator must yield exactly that many
// transactions.
func TestBuildSetYieldsRequestedCount(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{1, 2, 3, 7, 12, 50, 160} {
			set, err := BuildSet(name, n, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s at %d txns: %v", name, n, err)
			}
			if len(set.Txns) != n {
				t.Fatalf("%s at %d txns: got %d", name, n, len(set.Txns))
			}
		}
	}
}

// shortGen is a generator that breaks the count contract: it yields one
// transaction fewer than asked.
type shortGen struct{ workload.Generator }

func (g shortGen) Generate(n int) *workload.Set { return g.Generator.Generate(n - 1) }

func TestBuildSetRejectsWrongCount(t *testing.T) {
	saved := registry
	defer func() { registry = saved }()
	tatp, _ := lookup("TATP")
	registry = append(append([]entry(nil), saved...), entry{
		info:  Info{Name: "Short"},
		build: func(o Options) workload.Generator { return shortGen{tatp.build(o)} },
	})
	if _, err := BuildSet("Short", 5, Options{}); err == nil {
		t.Fatal("BuildSet accepted a set of 4 transactions for a request of 5")
	}
}

// setDigest hashes everything replay depends on: the type sequence and
// every trace entry of every transaction.
func setDigest(s *workload.Set) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(v uint64) { h = xrand.Hash64(h ^ v) }
	for _, tx := range s.Txns {
		mix(uint64(tx.Type))
		mix(uint64(tx.Header))
		for _, e := range tx.Trace.Entries {
			mix(uint64(e.Block)<<16 | uint64(e.N)<<2 | uint64(e.Kind))
		}
	}
	return h
}

// TestEveryWorkloadIsDeterministic is the registry-wide replayability
// gate: equal seeds must reproduce byte-identical traces (the property
// every scheduler comparison rests on), and different seeds must
// actually change the workload. New benchmarks get both checks for
// free by registering.
func TestEveryWorkloadIsDeterministic(t *testing.T) {
	const txns = 12
	for _, name := range Names() {
		a, err := BuildSet(name, txns, Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := BuildSet(name, txns, Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if da, db := setDigest(a), setDigest(b); da != db {
			t.Errorf("%s: same seed produced different traces (%x vs %x)", name, da, db)
		}
		c, err := BuildSet(name, txns, Options{Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if setDigest(a) == setDigest(c) {
			t.Errorf("%s: seeds 5 and 6 produced identical traces", name)
		}
	}
}

// TestGeneratedTracesAreExactSize: every generator stores each trace at
// its final length (trace.Buffer.Clone of a reused scratch buffer), with
// no append-doubling slack, for mixed and typed sets alike.
func TestGeneratedTracesAreExactSize(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, set := range []*workload.Set{g.Generate(6), g.GenerateTyped(0, 2)} {
			for _, tx := range set.Txns {
				if n, c := len(tx.Trace.Entries), cap(tx.Trace.Entries); n != c {
					t.Errorf("%s txn %d: %d entries in a buffer of capacity %d", name, tx.ID, n, c)
				}
			}
		}
	}
}

// TestSeedZeroIsARealSeed pins the registry's seed contract: unlike
// Config.Seed (where 0 falls back to the default), workload seeds are
// used verbatim.
func TestSeedZeroIsARealSeed(t *testing.T) {
	z, err := BuildSet("TATP", 10, Options{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildSet("TATP", 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if setDigest(z) == setDigest(o) {
		t.Fatal("seed 0 aliased to seed 1")
	}
}

func TestSynthOptionsFlowThrough(t *testing.T) {
	g, err := Build("Synth", Options{Seed: 2, Synth: synth.Params{FootprintUnits: 2, Types: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "Synth-2u-3t" {
		t.Fatalf("synth name = %q", g.Name())
	}
	if got := len(g.TypeNames()); got != 3 {
		t.Fatalf("synth types = %d", got)
	}
}

func TestScaleFlowsThrough(t *testing.T) {
	g, err := Build("TPC-C-1", Options{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "TPC-C-2" {
		t.Fatalf("scaled TPC-C name = %q", g.Name())
	}
}
