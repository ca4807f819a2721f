package runcache

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"strex/internal/bench"
	"strex/internal/core"
)

// TestPruneSparesInFlightTempFiles covers the multi-process contract:
// a young dot-prefixed temp file is another process's write in flight
// (atomicfile's temp-then-rename), and removing it would break that
// writer's rename. Only temp files older than pruneTempGrace — debris
// from a crashed writer — may go.
func TestPruneSparesInFlightTempFiles(t *testing.T) {
	c := testCache(t)
	dir := filepath.Join(c.Dir(), "traces", "ab")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	young := filepath.Join(dir, ".tmp-inflight")
	if err := os.WriteFile(young, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".tmp-orphan")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * pruneTempGrace)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prune(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(young); err != nil {
		t.Errorf("in-flight temp file removed by Prune: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived Prune (stat err=%v)", err)
	}
}

// TestPruneConcurrentWriters runs Prune-to-zero against live writers
// and a racing second pruner on the same directory — the sharded
// topology, where every worker process shares one cache. Prune must
// tolerate files appearing, vanishing between its scan and its
// removal, and being removed underneath it by the other pruner.
func TestPruneConcurrentWriters(t *testing.T) {
	c := testCache(t)
	set, err := bench.BuildSet("SmallBank", 4, bench.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// writer: a second handle on the same directory, as a separate
	// worker process would hold.
	w, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := SetKey{Workload: "SmallBank", Seed: i, Txns: 4, TypeID: -1}
			if err := w.PutSet(k, set); err != nil {
				t.Errorf("PutSet during Prune: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var pg sync.WaitGroup
		for p := 0; p < 2; p++ { // two pruners race over the same scan
			pg.Add(1)
			go func() {
				defer pg.Done()
				if _, err := c.Prune(0); err != nil {
					t.Errorf("Prune with concurrent writers: %v", err)
				}
			}()
		}
		pg.Wait()
	}
	close(stop)
	wg.Wait()
	// The directory must still be writable and readable after the storm.
	k := SetKey{Workload: "SmallBank", Seed: 999, Txns: 4, TypeID: -1}
	if err := c.PutSet(k, set); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetSet(k); !ok {
		t.Fatal("cache unusable after concurrent prune storm")
	}
}

// TestPruneEvictsEveryRecordKind: Prune bounds the whole directory, so
// every artifact kind is evictable, oldest first — a trace, a result
// record, a footprint record and a result record in the retired JSON
// form, which nothing reads and nothing else would ever remove.
func TestPruneEvictsEveryRecordKind(t *testing.T) {
	c := testCache(t)
	set, err := bench.BuildSet("SmallBank", 4, bench.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	key := SetKey{Workload: "SmallBank", Seed: 9, Txns: 4, TypeID: -1}
	const run = "ab01"
	if err := c.PutSet(key, set); err != nil {
		t.Fatal(err)
	}
	if err := c.PutResult(run, sampleRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutFootprint(key, 3, core.MeasureFPTable(set, 3)); err != nil {
		t.Fatal(err)
	}
	retired := filepath.Join(c.Dir(), "results", "cd", "cd02.json")
	if err := os.MkdirAll(filepath.Dir(retired), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(retired, []byte(`{"schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fpHash := footprintHash(key, 3)
	// Oldest first: the retired record, the footprint, the result, the trace.
	paths := []string{
		retired,
		filepath.Join(c.Dir(), "footprints", fpHash[:2], fpHash+".fp"),
		filepath.Join(c.Dir(), "results", run[:2], run+".rec"),
		filepath.Join(c.Dir(), "traces", key.Hash()[:2], key.Hash()+".strextrace"),
	}
	var sizes []int64
	for i, p := range paths {
		mtime := time.Unix(1000+int64(i)*100, 0)
		if err := os.Chtimes(p, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	size, err := c.Size()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		size -= sizes[i]
		if removed, err := c.Prune(size); err != nil || removed != 1 {
			t.Fatalf("prune to %d bytes removed %d files (err %v), want 1", size, removed, err)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived its turn (stat err %v)", p, err)
		}
		for _, later := range paths[i+1:] {
			if _, err := os.Stat(later); err != nil {
				t.Fatalf("%s evicted before %s: %v", later, p, err)
			}
		}
	}
	if _, ok := c.GetFootprint(key, 3); ok {
		t.Fatal("pruned footprint still served")
	}
}
