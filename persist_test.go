package strex_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"strex"
	"strex/internal/bench"
)

// TestSaveLoadTraceReplaysIdentically: a workload saved to a
// .strextrace artifact and loaded back must produce the exact same
// simulation results as the original in-memory workload.
func TestSaveLoadTraceReplaysIdentically(t *testing.T) {
	w, err := strex.BuildWorkload("Voter", strex.WorkloadOptions{Txns: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "voter.strextrace")
	if err := w.SaveTrace(path); err != nil {
		t.Fatal(err)
	}
	w2, err := strex.LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Name() != w.Name() || w2.Txns() != w.Txns() || w2.Instrs() != w.Instrs() {
		t.Fatalf("loaded workload differs: %s/%d/%d vs %s/%d/%d",
			w2.Name(), w2.Txns(), w2.Instrs(), w.Name(), w.Txns(), w.Instrs())
	}
	cfg := strex.DefaultConfig(2)
	for _, kind := range []strex.SchedulerKind{strex.SchedBaseline, strex.SchedSTREX} {
		a, err := strex.Run(cfg, w, kind)
		if err != nil {
			t.Fatal(err)
		}
		b, err := strex.Run(cfg, w2, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: results differ between generated and loaded workload\n%+v\n%+v", kind, a, b)
		}
	}
}

// TestLoadWorkloadRejectsCorruptFiles: corruption must surface as an
// error, not a bogus workload.
func TestLoadWorkloadRejectsCorruptFiles(t *testing.T) {
	if _, err := strex.LoadWorkload(filepath.Join(t.TempDir(), "missing.strextrace")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBuildWorkloadCache: with CacheDir set, the set is loaded on first
// use rather than at build time; once one build has stored it, a second
// build is served from disk (zero generations, even when it simulates)
// and is identical to the first; aliases share the same artifact.
func TestBuildWorkloadCache(t *testing.T) {
	dir := t.TempDir()
	opts := strex.WorkloadOptions{Txns: 10, Seed: 5, CacheDir: dir}
	before := bench.Generations()
	w1, err := strex.BuildWorkload("TATP", opts)
	if err != nil {
		t.Fatal(err)
	}
	if gens := bench.Generations() - before; gens != 0 {
		t.Fatalf("cached build performed %d generations before first use", gens)
	}
	res1, err := strex.Run(strex.DefaultConfig(2), w1, strex.SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	if gens := bench.Generations() - before; gens != 1 {
		t.Fatalf("first use of a cold cached build performed %d generations, want 1", gens)
	}
	before = bench.Generations()
	w2, err := strex.BuildWorkload("tatp", opts) // alias spelling
	if err != nil {
		t.Fatal(err)
	}
	res2, err := strex.Run(strex.DefaultConfig(2), w2, strex.SchedSTREX)
	if err != nil {
		t.Fatal(err)
	}
	if gens := bench.Generations() - before; gens != 0 {
		t.Fatalf("cached build performed %d generations", gens)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("cached workload simulates differently")
	}
	// NoCache must bypass the store.
	nc := opts
	nc.NoCache = true
	before = bench.Generations()
	if _, err := strex.BuildWorkload("TATP", nc); err != nil {
		t.Fatal(err)
	}
	if gens := bench.Generations() - before; gens == 0 {
		t.Fatal("NoCache build did not regenerate")
	}
}
