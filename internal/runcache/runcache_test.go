package runcache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"strex/internal/bench"
	"strex/internal/sim"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c.Enabled() || c.Dir() != "" {
		t.Fatal("nil cache not disabled")
	}
	if _, ok := c.GetSet(SetKey{}); ok {
		t.Fatal("nil GetSet hit")
	}
	if err := c.PutSet(SetKey{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResult("x"); ok {
		t.Fatal("nil GetResult hit")
	}
	if _, err := c.Prune(0); err != nil {
		t.Fatal(err)
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("nil stats non-zero")
	}
}

func TestSetRoundTripAndStats(t *testing.T) {
	c := testCache(t)
	set, err := bench.BuildSet("Voter", 6, bench.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	key := SetKey{Workload: "Voter", Seed: 3, Txns: 6, TypeID: -1}
	if _, ok := c.GetSet(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.PutSet(key, set); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetSet(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(set, got) {
		t.Fatal("cached set differs")
	}
	// A different key must miss.
	if _, ok := c.GetSet(SetKey{Workload: "Voter", Seed: 4, Txns: 6, TypeID: -1}); ok {
		t.Fatal("seed 4 hit seed 3's artifact")
	}
	st := c.Stats()
	if st.TraceHits != 1 || st.TraceMisses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	// One artifact written, the same artifact served once: the byte
	// counters must agree with each other and be non-zero.
	if st.BytesWritten == 0 || st.BytesRead != st.BytesWritten {
		t.Fatalf("byte counters = %d read / %d written, want equal and non-zero", st.BytesRead, st.BytesWritten)
	}
}

func TestKeysAreStableAndDiscriminating(t *testing.T) {
	base := SetKey{Workload: "TPC-C-1", Seed: 1, Scale: 1, Txns: 10, TypeID: -1}
	if base.Hash() != base.Hash() {
		t.Fatal("hash not stable")
	}
	variants := []SetKey{
		{Workload: "TPC-C-10", Seed: 1, Scale: 1, Txns: 10, TypeID: -1},
		{Workload: "TPC-C-1", Seed: 2, Scale: 1, Txns: 10, TypeID: -1},
		{Workload: "TPC-C-1", Seed: 1, Scale: 2, Txns: 10, TypeID: -1},
		{Workload: "TPC-C-1", Seed: 1, Scale: 1, Txns: 11, TypeID: -1},
		{Workload: "TPC-C-1", Seed: 1, Scale: 1, Txns: 10, TypeID: 0},
		{Workload: "TPC-C-1", Seed: 1, Scale: 1, Txns: 10, TypeID: -1, Extra: "x"},
	}
	for _, v := range variants {
		if v.Hash() == base.Hash() {
			t.Fatalf("key %+v collides with base", v)
		}
	}
	cfgA := sim.DefaultConfig(4)
	cfgB := sim.DefaultConfig(4)
	cfgB.L1IKB = 64
	a := RunKey{Config: cfgA, Sched: "strex", SetID: "s"}.Hash()
	if a != (RunKey{Config: cfgA, Sched: "strex", SetID: "s"}.Hash()) {
		t.Fatal("run key not stable")
	}
	for _, v := range []RunKey{
		{Config: cfgB, Sched: "strex", SetID: "s"},
		{Config: cfgA, Sched: "base", SetID: "s"},
		{Config: cfgA, Sched: "strex", SetID: "t"},
	} {
		if v.Hash() == a {
			t.Fatalf("run key %+v collides", v)
		}
	}
}

func TestResultRecordRoundTrip(t *testing.T) {
	c := testCache(t)
	res := sim.Result{
		Stats: sim.Stats{Cycles: 123456, BusyCycles: 100000, Instrs: 999,
			IMisses: 7, IAccesses: 100, DMisses: 3, DAccesses: 50,
			Switches: 2, Migrations: 1, L2Misses: 4, Invalidations: 5},
	}
	res.Threads = []*sim.Thread{
		{EnqueueCycle: 1, StartCycle: 2, FinishCycle: 30, Instrs: 500},
		{EnqueueCycle: 2, StartCycle: 31, FinishCycle: 99, Instrs: 499},
	}
	key := RunKey{Config: sim.DefaultConfig(2), Sched: "test", SetID: "s"}.Hash()
	if _, ok := c.GetResult(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.PutResult(key, RecordOf(res)); err != nil {
		t.Fatal(err)
	}
	rec, ok := c.GetResult(key)
	if !ok {
		t.Fatal("miss after put")
	}
	got := rec.Result()
	if got.Stats != res.Stats {
		t.Fatalf("stats differ: %+v vs %+v", got.Stats, res.Stats)
	}
	if len(got.Threads) != 2 {
		t.Fatalf("%d threads", len(got.Threads))
	}
	for i, th := range got.Threads {
		want := res.Threads[i]
		if th.Latency() != want.Latency() || th.StartCycle != want.StartCycle || th.Instrs != want.Instrs {
			t.Fatalf("thread %d differs: %+v vs %+v", i, th, want)
		}
	}
}

func TestCorruptResultIsAMiss(t *testing.T) {
	c := testCache(t)
	key := RunKey{Sched: "x", SetID: "s"}.Hash()
	if err := c.PutResult(key, Record{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), "results", key[:2], key+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResult(key); ok {
		t.Fatal("corrupt record served")
	}
}

func TestPruneEvictsOldestFirst(t *testing.T) {
	c := testCache(t)
	set, err := bench.BuildSet("SmallBank", 4, bench.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	keys := []SetKey{
		{Workload: "SmallBank", Seed: 9, Txns: 4, TypeID: -1, Extra: "a"},
		{Workload: "SmallBank", Seed: 9, Txns: 4, TypeID: -1, Extra: "b"},
	}
	for i, k := range keys {
		if err := c.PutSet(k, set); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes make the eviction order deterministic.
		path := filepath.Join(c.Dir(), "traces", k.Hash()[:2], k.Hash()+".strextrace")
		mtime := time.Unix(1000+int64(i)*100, 0)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	size, err := c.Size()
	if err != nil || size == 0 {
		t.Fatalf("size=%d err=%v", size, err)
	}
	// Cap below total: the older artifact (Extra:"a") must go first.
	removed, err := c.Prune(size - 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if _, ok := c.GetSet(keys[0]); ok {
		t.Fatal("oldest artifact survived")
	}
	if _, ok := c.GetSet(keys[1]); !ok {
		t.Fatal("newest artifact evicted")
	}
	// Prune to zero empties everything.
	if _, err := c.Prune(0); err != nil {
		t.Fatal(err)
	}
	if size, _ := c.Size(); size != 0 {
		t.Fatalf("size after full prune = %d", size)
	}
}
