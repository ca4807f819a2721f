package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strex/internal/runcache"
	"strex/internal/shard"
	"strex/internal/sim"
)

// TestWorkerRejectsUnknownFields: the run RPC, like the job handler,
// accepts only the fields WireSpec declares. A spec that runs fine as
// sent must get a 400 once it carries an unknown field, at the top
// level or nested, instead of running with the field silently dropped.
func TestWorkerRejectsUnknownFields(t *testing.T) {
	hs := httptest.NewServer(NewWorker(WorkerConfig{Parallel: 1}).Handler())
	defer hs.Close()
	ws := shard.WireSpec{
		Config:  sim.DefaultConfig(2),
		SchedID: "base",
		Set:     shard.SetRef{Workload: "SmallBank", Seed: 9, Txns: 8, TypeID: -1},
	}
	valid, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e) // only error replies are read
		return resp.StatusCode, e.Error
	}
	if code, msg := post(valid); code != http.StatusOK {
		t.Fatalf("valid spec: status %d (%s), want 200", code, msg)
	}
	for _, tc := range []struct{ name, body string }{
		{"top level", strings.Replace(string(valid), `{`, `{"priority":1,`, 1)},
		{"nested", strings.Replace(string(valid), `"set":{`, `"set":{"warehouses":2,`, 1)},
	} {
		if tc.body == string(valid) {
			t.Fatalf("%s: test failed to inject the field", tc.name)
		}
		if code, msg := post([]byte(tc.body)); code != http.StatusBadRequest || !strings.Contains(msg, "unknown field") {
			t.Errorf("%s: status %d (%s), want 400 naming the unknown field", tc.name, code, msg)
		}
	}
}

// TestWorkerRejectsCoreCountsOutOfRange: the run RPC passes its config
// straight to the engine, so it checks the core count first: 64 runs,
// while 0 and 65 get a 400.
func TestWorkerRejectsCoreCountsOutOfRange(t *testing.T) {
	hs := httptest.NewServer(NewWorker(WorkerConfig{Parallel: 1}).Handler())
	defer hs.Close()
	for _, tc := range []struct{ cores, want int }{{64, http.StatusOK}, {0, http.StatusBadRequest}, {65, http.StatusBadRequest}} {
		cfg := sim.DefaultConfig(tc.cores)
		cfg.Mem.L2SliceKB = 16 // keep the 64-core L2 small
		body, err := json.Marshal(shard.WireSpec{
			Config:  cfg,
			SchedID: "base",
			Set:     shard.SetRef{Workload: "SmallBank", Seed: 9, Txns: 8, TypeID: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("cores %d: status %d, want %d", tc.cores, resp.StatusCode, tc.want)
		}
	}
}

// TestWorkerExposesCorruptReads: the worker's exposition carries the
// cache's corrupt-read counters beside its hits and misses.
func TestWorkerExposesCorruptReads(t *testing.T) {
	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "ab12"
	if err := os.MkdirAll(filepath.Join(dir, "results", key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", key[:2], key+".rec"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetResult(key); ok {
		t.Fatal("torn record served")
	}
	hs := httptest.NewServer(NewWorker(WorkerConfig{Parallel: 1, Cache: cache}).Handler())
	defer hs.Close()
	checkPromCounters(t, hs, map[string]int64{
		"strexworker_cache_result_misses_total":  1,
		"strexworker_cache_result_corrupt_total": 1,
		"strexworker_cache_trace_corrupt_total":  0,
	})
}
