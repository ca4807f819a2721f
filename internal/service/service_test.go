package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"strex/internal/bench"
	"strex/internal/obs"
)

// newTestServer builds a daemon with a per-test warm cache and serves
// it over httptest. Shutdown is idempotent, so tests that exercise it
// themselves coexist with the cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

// blockerSpec is slow enough (~0.5s of generation + simulation) to
// reliably hold a worker while a test stages queued state behind it.
func blockerSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "tpcc1", Txns: 150, Seed: seed, Cores: 2, ClientID: "blocker"}
}

// tinySpec runs in single-digit milliseconds.
func tinySpec(seed uint64) JobSpec {
	return JobSpec{Workload: "tatp", Txns: 8, Seed: seed, Cores: 2}
}

func postJob(t *testing.T, hs *httptest.Server, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitState(t *testing.T, s *Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) && !terminal(want) {
			t.Fatalf("job %s reached terminal state %s (err=%q) while waiting for %s", id, st.State, st.Error, want)
		}
		if terminal(want) && terminal(st.State) {
			t.Fatalf("job %s terminal state = %s (err=%q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return JobStatus{}
}

// getResultRaw fetches /result and returns (status code, envelope
// fields, raw bytes of the deterministic `result` member).
func getResultRaw(t *testing.T, hs *httptest.Server, id string) (int, map[string]json.RawMessage, string) {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, env, string(env["result"])
}

func getMetrics(t *testing.T, hs *httptest.Server) Metrics {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSubmitRunResult is the end-to-end happy path over the wire:
// submit, reach done, fetch the result, see it reflected in metrics.
func TestSubmitRunResult(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 2})
	st, code := postJob(t, hs, JobSpec{Workload: "tatp", Txns: 16, Seed: 7, Seeds: 3, Cores: 2, ClientID: "e2e"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if st.ID == "" || terminal(st.State) {
		t.Fatalf("birth status = %+v", st)
	}
	fin := waitState(t, s, st.ID, StateDone)
	if fin.Generations == nil || *fin.Generations < 1 {
		t.Fatalf("cold job generations = %v, want >= 1", fin.Generations)
	}
	code, env, raw := getResultRaw(t, hs, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result status = %d, want 200 (%v)", code, env)
	}
	var jr JobResult
	if err := json.Unmarshal([]byte(raw), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Workload != "TATP" || jr.Scheduler == "" || len(jr.Reps) != 3 || len(jr.Seeds) != 3 {
		t.Fatalf("result payload = %+v", jr)
	}
	if jr.Reps[0].Instrs == 0 || jr.Throughput.N != 3 {
		t.Fatalf("result metrics empty: %+v", jr)
	}
	m := getMetrics(t, hs)
	if m.Counters.Completed != 1 || m.Counters.Accepted != 1 || m.Counters.Generations < 1 {
		t.Fatalf("metrics after one job: %+v", m.Counters)
	}
	if m.Workers != 2 || !m.Cache.Enabled {
		t.Fatalf("metrics shape: workers=%d cache=%v", m.Workers, m.Cache.Enabled)
	}
}

// TestCoalescingSingleflight is the singleflight+cache interaction
// test: concurrent identical submissions must produce exactly ONE
// fresh execution per replicate and byte-identical results for every
// attached job — race-clean under -race by construction (the
// submissions race each other through Submit).
func TestCoalescingSingleflight(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	blk, code := postJob(t, hs, blockerSpec(3))
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", code)
	}
	waitState(t, s, blk.ID, StateRunning) // the only worker is now busy

	const dup = 8
	target := tinySpec(99)
	target.Seeds = 2
	ids := make([]string, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := target
			spec.ClientID = fmt.Sprintf("tenant-%d", i)
			body, _ := json.Marshal(spec)
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("dup %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	leaders := 0
	var firstRaw string
	for i, id := range ids {
		fin := waitState(t, s, id, StateDone)
		if !fin.Coalesced {
			leaders++
			if fin.Generations == nil || *fin.Generations != 2 {
				t.Fatalf("leader generations = %v, want 2 (one per replicate)", fin.Generations)
			}
		} else if *fin.Generations != 0 {
			t.Fatalf("follower %d charged %d generations", i, *fin.Generations)
		}
		code, _, raw := getResultRaw(t, hs, id)
		if code != http.StatusOK {
			t.Fatalf("dup %d result status = %d", i, code)
		}
		if i == 0 {
			firstRaw = raw
		} else if raw != firstRaw {
			t.Fatalf("dup %d result bytes differ:\n%s\nvs\n%s", i, raw, firstRaw)
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1 (singleflight)", leaders)
	}
	m := getMetrics(t, hs)
	if m.Counters.Coalesced != dup-1 {
		t.Fatalf("coalesced counter = %d, want %d", m.Counters.Coalesced, dup-1)
	}
	// The whole duplicate burst cost exactly one flight's generations:
	// 2 replicates (the blocker's are separate).
	waitState(t, s, blk.ID, StateDone)
	if g := s.met.generations.Load(); g != 2+1 { // target's 2 + blocker's 1
		t.Fatalf("total generations = %d, want 3", g)
	}
}

// TestCoalesceOntoRunningFlight attaches followers to a flight that has
// already started, the case TestCoalescingSingleflight (which attaches
// while the flight is still queued) leaves out: followers start in the
// running state, share the leader's bytes and charge no generations.
// Run it under -race: Submit appends to the flight's job list while the
// dispatcher is still starting the flight.
func TestCoalesceOntoRunningFlight(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	spec := blockerSpec(5)
	lead, code := postJob(t, hs, spec)
	if code != http.StatusAccepted {
		t.Fatalf("leader submit = %d", code)
	}
	waitState(t, s, lead.ID, StateRunning)

	const followers = 4
	sts := make([]JobStatus, followers)
	codes := make([]int, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := spec
			f.ClientID = fmt.Sprintf("follower-%d", i)
			body, _ := json.Marshal(f)
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if err := json.NewDecoder(resp.Body).Decode(&sts[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	fin := waitState(t, s, lead.ID, StateDone)
	if fin.Coalesced || fin.Generations == nil || *fin.Generations != 1 {
		t.Fatalf("leader coalesced=%v generations=%v, want a fresh leader with 1", fin.Coalesced, fin.Generations)
	}
	_, _, leadRaw := getResultRaw(t, hs, lead.ID)
	for i, st := range sts {
		if codes[i] != http.StatusAccepted || !st.Coalesced || st.State != StateRunning {
			t.Fatalf("follower %d: status %d coalesced=%v state=%s, want 202, coalesced, %s",
				i, codes[i], st.Coalesced, st.State, StateRunning)
		}
		if f := waitState(t, s, st.ID, StateDone); *f.Generations != 0 {
			t.Fatalf("follower %d charged %d generations", i, *f.Generations)
		}
		if _, _, raw := getResultRaw(t, hs, st.ID); raw != leadRaw {
			t.Fatalf("follower %d result bytes differ from the leader's", i)
		}
	}
	if m := getMetrics(t, hs); m.Counters.Coalesced != followers {
		t.Fatalf("coalesced counter = %d, want %d", m.Counters.Coalesced, followers)
	}
}

// TestWarmResubmit: an identical submission after completion is
// absorbed by the shared cache — zero generations, identical bytes —
// for every scheduler kind.
func TestWarmResubmit(t *testing.T) {
	for _, sched := range []string{"strex", "base", "slicc", "hybrid"} {
		t.Run(sched, func(t *testing.T) {
			spec := tinySpec(42)
			spec.Seeds = 2
			spec.Sched = sched
			testWarmResubmit(t, spec)
		})
	}
}

func testWarmResubmit(t *testing.T, spec JobSpec) {
	s, hs := newTestServer(t, Config{Parallel: 2})
	st1, _ := postJob(t, hs, spec)
	waitState(t, s, st1.ID, StateDone)
	_, _, raw1 := getResultRaw(t, hs, st1.ID)

	st2, _ := postJob(t, hs, spec)
	fin := waitState(t, s, st2.ID, StateDone)
	if fin.Generations == nil || *fin.Generations != 0 {
		t.Fatalf("warm resubmit generations = %v, want 0", fin.Generations)
	}
	_, env, raw2 := getResultRaw(t, hs, st2.ID)
	if raw2 != raw1 {
		t.Fatalf("warm result differs from cold:\n%s\nvs\n%s", raw2, raw1)
	}
	var gens int
	if err := json.Unmarshal(env["generations"], &gens); err != nil || gens != 0 {
		t.Fatalf("envelope generations = %s (err %v), want 0", env["generations"], err)
	}
	m := getMetrics(t, hs)
	if m.Counters.Absorbed != 1 || m.Counters.MemoHits != 1 || m.MemoEntries == 0 {
		t.Fatalf("warm counters: %+v (memo entries %d)", m.Counters, m.MemoEntries)
	}

	// The disk tier must absorb too: a fresh daemon (cold memo) sharing
	// the cache directory serves the same spec with zero generations and
	// the cold bytes. It answers from records alone: with the traces
	// deleted, a job neither regenerates a set nor writes a trace back.
	// The hybrid reads each draw's footprint record to pick its
	// mechanism, then that mechanism's result records.
	traces := filepath.Join(s.cfg.CacheDir, "traces")
	if err := os.RemoveAll(traces); err != nil {
		t.Fatal(err)
	}
	s2, hs2 := newTestServer(t, Config{Parallel: 2, CacheDir: s.cfg.CacheDir})
	g0 := bench.Generations()
	st3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin3 := waitState(t, s2, st3.ID, StateDone)
	if fin3.Generations == nil || *fin3.Generations != 0 {
		t.Fatalf("restart resubmit generations = %v, want 0 (disk tier)", fin3.Generations)
	}
	if _, _, raw3 := getResultRaw(t, hs2, st3.ID); raw3 != raw1 {
		t.Fatalf("restart result differs from cold:\n%s\nvs\n%s", raw3, raw1)
	}
	if g := bench.Generations() - g0; g != 0 {
		t.Fatalf("restart resubmit generated %d sets, want 0", g)
	}
	c := getMetrics(t, hs2).Cache
	if c.TraceHits != 0 || c.TraceMisses != 0 {
		t.Fatalf("restart resubmit read traces: %d hits, %d misses, want none", c.TraceHits, c.TraceMisses)
	}
	if spec.Sched == "hybrid" && (c.FootprintHits != int64(spec.Seeds) || c.FootprintMisses != 0) {
		t.Fatalf("restart hybrid footprint records: %d hits, %d misses, want %d hits", c.FootprintHits, c.FootprintMisses, spec.Seeds)
	}
	var written []string
	if err := filepath.WalkDir(traces, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			written = append(written, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(written) != 0 {
		t.Fatalf("restart resubmit wrote traces back: %v", written)
	}
}

// TestTraceTrafficCounted: the daemon's cache counters see the trace
// loads its jobs make. A cold job on an empty cache misses once per
// draw; a restarted daemon whose result records for that job were
// deleted loads each draw from the trace cache, one hit per draw. Both
// show in /v1/metrics and in the Prometheus exposition.
func TestTraceTrafficCounted(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	spec := tinySpec(17)
	spec.Seeds = 2
	st, _ := postJob(t, hs, spec)
	waitState(t, s, st.ID, StateDone)
	checkTraceTraffic(t, hs, 0, 2)

	if err := os.RemoveAll(filepath.Join(s.cfg.CacheDir, "results")); err != nil {
		t.Fatal(err)
	}
	s2, hs2 := newTestServer(t, Config{Parallel: 1, CacheDir: s.cfg.CacheDir})
	st2, _ := postJob(t, hs2, spec)
	waitState(t, s2, st2.ID, StateDone)
	checkTraceTraffic(t, hs2, 2, 0)
}

// checkTraceTraffic asserts the daemon's trace hit and miss counters in
// both /v1/metrics and the Prometheus exposition.
func checkTraceTraffic(t *testing.T, hs *httptest.Server, hits, misses int64) {
	t.Helper()
	m := getMetrics(t, hs)
	if m.Cache.TraceHits != hits || m.Cache.TraceMisses != misses {
		t.Fatalf("/v1/metrics trace hits/misses = %d/%d, want %d/%d",
			m.Cache.TraceHits, m.Cache.TraceMisses, hits, misses)
	}
	checkPromCounters(t, hs, map[string]int64{
		"strexd_cache_trace_hits_total":   hits,
		"strexd_cache_trace_misses_total": misses,
	})
}

// checkPromCounters asserts counter values in the Prometheus exposition.
func checkPromCounters(t *testing.T, hs *httptest.Server, want map[string]int64) {
	t.Helper()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if v, err := fams[name].Value(); err != nil || v != float64(w) {
			t.Fatalf("%s = %v (err %v), want %d", name, v, err, w)
		}
	}
}

// TestCorruptArtifactsCounted: a daemon restarted on a cache in which
// every trace and result record has one flipped byte re-runs the job
// with the cold result, rewrites the artifacts, and counts each corrupt
// read apart from absent ones in /v1/metrics and the exposition.
func TestCorruptArtifactsCounted(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	spec := tinySpec(19)
	spec.Seeds = 2
	st, _ := postJob(t, hs, spec)
	waitState(t, s, st.ID, StateDone)
	_, _, cold := getResultRaw(t, hs, st.ID)

	for _, sub := range []string{"traces", "results"} {
		err := filepath.WalkDir(filepath.Join(s.cfg.CacheDir, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x20
			return os.WriteFile(path, data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	counted := func(hs *httptest.Server, corrupt int64) {
		t.Helper()
		if c := getMetrics(t, hs).Cache; c.TraceCorrupt != corrupt || c.ResultCorrupt != corrupt {
			t.Fatalf("/v1/metrics corrupt traces/results = %d/%d, want %d/%d", c.TraceCorrupt, c.ResultCorrupt, corrupt, corrupt)
		}
		checkPromCounters(t, hs, map[string]int64{
			"strexd_cache_trace_corrupt_total":  corrupt,
			"strexd_cache_result_corrupt_total": corrupt,
		})
	}
	s2, hs2 := newTestServer(t, Config{Parallel: 1, CacheDir: s.cfg.CacheDir})
	st2, _ := postJob(t, hs2, spec)
	waitState(t, s2, st2.ID, StateDone)
	if _, _, raw := getResultRaw(t, hs2, st2.ID); raw != cold {
		t.Fatalf("re-run result differs from cold:\n%s\nvs\n%s", raw, cold)
	}
	counted(hs2, 2)

	s3, hs3 := newTestServer(t, Config{Parallel: 1, CacheDir: s.cfg.CacheDir})
	st3, _ := postJob(t, hs3, spec)
	if fin := waitState(t, s3, st3.ID, StateDone); fin.Generations == nil || *fin.Generations != 0 {
		t.Fatalf("rewritten cache: generations = %v, want 0", fin.Generations)
	}
	counted(hs3, 0)
}

// TestCancel covers both cancellation shapes: a queued job (detached
// before it ever runs) and a running job (context propagation stops
// the engine mid-run).
func TestCancel(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	blk, _ := postJob(t, hs, blockerSpec(5))
	waitState(t, s, blk.ID, StateRunning)
	queued, _ := postJob(t, hs, tinySpec(1))
	if st, _ := s.Status(queued.ID); st.State != StateQueued || st.QueuePosition != 1 {
		t.Fatalf("staged job status = %+v, want queued at position 1", st)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued = %d, want 200", resp.StatusCode)
	}
	if st, _ := s.Status(queued.ID); st.State != StateCanceled {
		t.Fatalf("cancelled queued job state = %s", st.State)
	}

	// Cancel the running blocker: its context must stop the engine well
	// before the run would finish on its own.
	if _, err := s.Cancel(blk.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, blk.ID, StateCanceled)
	if fin.Generations == nil || *fin.Generations != 0 {
		t.Fatalf("cancelled run charged generations: %v", fin.Generations)
	}
	// Double cancel conflicts.
	if _, err := s.Cancel(blk.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("double cancel err = %v, want ErrConflict", err)
	}
	// Result of a cancelled job is 410.
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + blk.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result status = %d, want 410", resp2.StatusCode)
	}

	// The daemon is healthy afterwards: a fresh job completes exactly.
	again, _ := postJob(t, hs, tinySpec(1))
	waitState(t, s, again.ID, StateDone)
	m := getMetrics(t, hs)
	if m.Counters.Canceled != 2 || m.Counters.Completed != 1 {
		t.Fatalf("counters after cancels: %+v", m.Counters)
	}
}

// TestBackpressure: a full admission queue refuses with 429 and a
// Retry-After hint; coalesced duplicates are still admitted (they cost
// no slot).
func TestBackpressure(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1, QueueDepth: 1})
	blk, _ := postJob(t, hs, blockerSpec(9))
	waitState(t, s, blk.ID, StateRunning)
	queued, code := postJob(t, hs, tinySpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("first queued submit = %d", code)
	}

	body, _ := json.Marshal(tinySpec(2)) // distinct spec: needs a slot
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if _, code := postJob(t, hs, tinySpec(1)); code != http.StatusAccepted {
		t.Fatalf("coalesced submit refused with %d despite full queue", code)
	}
	m := getMetrics(t, hs)
	if m.Counters.Rejected != 1 || m.Counters.Coalesced != 1 {
		t.Fatalf("counters = %+v", m.Counters)
	}
	waitState(t, s, queued.ID, StateDone)
}

// TestShutdownDrains: running jobs finish, queued jobs are settled as
// canceled, new submissions are refused — and no completed job is
// dropped.
func TestShutdownDrains(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	blk, _ := postJob(t, hs, blockerSpec(13))
	waitState(t, s, blk.ID, StateRunning)
	queued, _ := postJob(t, hs, tinySpec(1))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st, _ := s.Status(blk.ID); st.State != StateDone {
		t.Fatalf("running job after drain = %s (err %q), want done", st.State, st.Error)
	}
	st, _ := s.Status(queued.ID)
	if st.State != StateCanceled || !strings.Contains(st.Error, "shutting down") {
		t.Fatalf("queued job after drain = %+v", st)
	}
	if _, err := s.Submit(tinySpec(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while drained err = %v", err)
	}
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"tatp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained = %d, want 503", resp.StatusCode)
	}
}

// TestStream reads the chunked progress feed to its terminal line.
func TestStream(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallel: 1})
	st, _ := postJob(t, hs, blockerSpec(21))
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	var lines []JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line JobStatus
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want >= 2 (progress + terminal)", len(lines))
	}
	last := lines[len(lines)-1]
	if last.State != StateDone {
		t.Fatalf("stream terminal line state = %s", last.State)
	}
	waitState(t, s, st.ID, StateDone)
}

// TestSpecIdentity pins the coalescing key semantics: aliases and
// client identity must not split the key; any run-affecting knob must.
func TestSpecIdentity(t *testing.T) {
	lim := Limits{}
	norm := func(s JobSpec) JobSpec {
		if err := s.normalize(lim); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := norm(JobSpec{Workload: "tatp", ClientID: "alice"})
	b := norm(JobSpec{Workload: "TATP", ClientID: "bob", Sched: "strex", Txns: 120, Cores: 4, Seeds: 1})
	if a.Key() != b.Key() {
		t.Fatalf("alias/default/client variations split the key:\n%+v\n%+v", a, b)
	}
	c := norm(JobSpec{Workload: "tatp", Seed: 1})
	if a.Key() == c.Key() {
		t.Fatal("distinct seeds share a key")
	}
	d := norm(JobSpec{Workload: "tatp", Sched: "slicc"})
	if a.Key() == d.Key() {
		t.Fatal("distinct schedulers share a key")
	}
}

// TestSpecCoreLimit: Limits clamps MaxCores to the 64 cores a
// directory presence mask holds, so a limit set higher still refuses a
// 65-core spec.
func TestSpecCoreLimit(t *testing.T) {
	lim := Limits{MaxCores: 1000}
	for cores, ok := range map[int]bool{64: true, 65: false} {
		s := JobSpec{Workload: "tatp", Cores: cores}
		if err := s.normalize(lim); (err == nil) != ok {
			t.Errorf("cores %d: normalize error %v", cores, err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallel: 1})
	for _, body := range []string{
		`{"workload":"no-such-benchmark"}`,
		`{"workload":"tatp","txns":1000000}`,
		`{"workload":"tatp","sched":"fifo"}`,
		`{"workload":"tatp","unknown_knob":1}`,
		`{"workload":"tatp","cores":-1}`,
		`not json`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}
