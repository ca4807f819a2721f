package shard_test

// Integration tests for the full sharded topology: real workers served
// over HTTP (httptest), a real coordinator, and the unchanged executor
// and experiment suite on top. The headline invariant under test is the
// one docs/SHARDING.md promises: sharded output is byte-identical to
// in-process output — at any fleet size, with work stealing, and across
// worker death mid-grid.

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"strex/internal/experiments"
	"strex/internal/metrics"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/service"
	"strex/internal/shard"
	"strex/internal/sim"
	"strex/internal/workload"
)

// bootWorkers starts n worker processes-in-miniature sharing one cache
// directory and returns their base URLs plus the servers (for targeted
// killing).
func bootWorkers(t *testing.T, n int, cacheDir string) ([]string, []*httptest.Server) {
	t.Helper()
	var cache *runcache.Cache
	if cacheDir != "" {
		var err error
		if cache, err = runcache.Open(cacheDir); err != nil {
			t.Fatal(err)
		}
	}
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		w := service.NewWorker(service.WorkerConfig{Parallel: 2, Cache: cache})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		servers[i] = srv
	}
	return urls, servers
}

func wireGrid(t *testing.T) ([]runner.Spec, *workloadFixture) {
	t.Helper()
	fx := newWorkloadFixture(t)
	var specs []runner.Spec
	for _, cores := range []int{1, 2} {
		for _, schedID := range []string{"base", "strex/w4/t2"} {
			cfg := sim.DefaultConfig(cores)
			cfg.Seed = 7
			mk, err := shard.SchedulerFor(schedID)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, runner.Spec{
				Label:   schedID,
				Config:  cfg,
				Set:     fx.set,
				Sched:   mk,
				SchedID: schedID,
				Remote: &shard.WireSpec{
					Label:   schedID,
					Config:  cfg,
					SchedID: schedID,
					Set:     fx.ref,
				},
			})
		}
	}
	return specs, fx
}

type workloadFixture struct {
	set *workload.Set
	ref shard.SetRef
}

func newWorkloadFixture(t *testing.T) *workloadFixture {
	t.Helper()
	ref := shard.SetRef{Workload: "SmallBank", Seed: 9, Txns: 12, TypeID: -1}
	set, err := ref.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &workloadFixture{set: set, ref: ref}
}

func mustScheduler(t *testing.T, id string, fx *workloadFixture) func() sim.Scheduler {
	t.Helper()
	mk, err := shard.SchedulerFor(id)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

func TestShardedExecutorEquivalence(t *testing.T) {
	specs, _ := wireGrid(t)

	// Ground truth: plain local execution.
	local := runner.New(2)
	want := make([]sim.Result, len(specs))
	for i, s := range specs {
		s.Remote = nil
		res, err := local.Submit(s).Wait()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	urls, _ := bootWorkers(t, 3, t.TempDir())
	coord, err := shard.New(urls, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	x := runner.New(2)
	x.SetRemote(coord)
	futs := make([]*runner.Future, len(specs))
	for i, s := range specs {
		futs[i] = x.Submit(s)
	}
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != want[i].Stats {
			t.Fatalf("run %d (%s) stats diverge:\n got %+v\nwant %+v", i, specs[i].Label, res.Stats, want[i].Stats)
		}
		if len(res.Threads) != len(want[i].Threads) {
			t.Fatalf("run %d thread count diverges", i)
		}
		for j := range res.Threads {
			if res.Threads[j].FinishCycle != want[i].Threads[j].FinishCycle ||
				res.Threads[j].StartCycle != want[i].Threads[j].StartCycle {
				t.Fatalf("run %d thread %d cycle stamps diverge", i, j)
			}
		}
	}
	var dispatched int64
	for _, m := range coord.Metrics() {
		dispatched += m.Dispatched
	}
	if dispatched == 0 {
		t.Fatal("no run was dispatched to a worker — the grid executed locally")
	}
}

// renderSuite runs the given drivers on a fresh suite and returns the
// rendered tables — the exact bytes the experiments CLI would print.
func renderSuite(t *testing.T, opts experiments.Options, kill func(done int)) string {
	t.Helper()
	s := experiments.NewSuite(opts)
	if kill != nil {
		s.Runner().OnProgress(func(done, submitted int, label string) { kill(done) })
	}
	var buf bytes.Buffer
	for _, tab := range []*metrics.Table{s.Figure4(), s.WorkloadSmoke()} {
		if err := tab.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	return buf.String()
}

func suiteOpts() experiments.Options {
	return experiments.Options{Txns: 24, Seed: 42, Cores: []int{2}}
}

// TestSuiteShardedByteIdentity pins the headline invariant end to end:
// the experiment suite, sharded over three live workers, renders byte-
// identical tables to the in-process suite.
func TestSuiteShardedByteIdentity(t *testing.T) {
	want := renderSuite(t, suiteOpts(), nil)

	urls, _ := bootWorkers(t, 3, t.TempDir())
	coord, err := shard.New(urls, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	opts := suiteOpts()
	opts.Remote = coord
	got := renderSuite(t, opts, nil)

	if got != want {
		t.Fatalf("sharded suite output diverges from in-process output:\n--- sharded ---\n%s\n--- local ---\n%s", got, want)
	}
	var completed int64
	for _, m := range coord.Metrics() {
		completed += m.Completed
	}
	if completed == 0 {
		t.Fatal("workers completed no runs")
	}
}

// TestWorkerDeathResubmission kills one of two workers mid-grid and
// requires the merged output to stay byte-identical: the coordinator
// must detect the death, resubmit the lost keys to the survivor, and
// the determinism contract guarantees the re-executions change nothing.
func TestWorkerDeathResubmission(t *testing.T) {
	want := renderSuite(t, suiteOpts(), nil)

	urls, servers := bootWorkers(t, 2, t.TempDir())
	coord, err := shard.New(urls, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	opts := suiteOpts()
	opts.Remote = coord

	killed := false
	got := renderSuite(t, opts, func(done int) {
		if !killed && done >= 2 { // mid-grid: some runs done, most in flight or queued
			killed = true
			servers[0].CloseClientConnections()
			servers[0].Close()
		}
	})
	if !killed {
		t.Fatal("kill hook never fired — grid too small to test mid-grid death")
	}
	if got != want {
		t.Fatalf("output after worker death diverges from in-process output:\n--- sharded ---\n%s\n--- local ---\n%s", got, want)
	}
	alive := coord.AliveWorkers()
	if alive != 1 {
		t.Fatalf("coordinator should have exactly one live worker after the kill, has %d", alive)
	}
}

// TestAllWorkersDeadFallsBackLocally: with the whole fleet gone the
// coordinator reports ErrRemoteUnavailable and the executor silently
// degrades to local execution — the grid still completes correctly.
func TestAllWorkersDeadFallsBackLocally(t *testing.T) {
	specs, _ := wireGrid(t)
	local := runner.New(2)
	want := make([]sim.Result, len(specs))
	for i, s := range specs {
		s.Remote = nil
		res, err := local.Submit(s).Wait()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	urls, servers := bootWorkers(t, 1, "")
	coord, err := shard.New(urls, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	servers[0].CloseClientConnections()
	servers[0].Close()

	x := runner.New(2)
	x.SetRemote(coord)
	for i, s := range specs {
		res, err := x.Submit(s).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != want[i].Stats {
			t.Fatalf("fallback run %d stats diverge", i)
		}
	}
	if coord.LocalFallbacks() == 0 {
		t.Fatal("expected local fallbacks once the fleet was dead")
	}
}

// TestWorkerRejectsBadSpecs covers the RPC 400 surface: a malformed
// spec must fail the future with the worker's reason, not fall back or
// retry forever.
func TestWorkerRejectsBadSpecs(t *testing.T) {
	urls, _ := bootWorkers(t, 1, "")
	coord, err := shard.New(urls, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	fx := newWorkloadFixture(t)
	cfg := sim.DefaultConfig(2)
	x := runner.New(1)
	x.SetRemote(coord)
	spec := runner.Spec{
		Label:   "bad",
		Config:  cfg,
		Set:     fx.set,
		SchedID: "base",
		Sched:   mustScheduler(t, "base", fx),
		Remote: &shard.WireSpec{
			Config:  cfg,
			SchedID: "strex/w0/t0", // invalid on the worker side
			Set:     fx.ref,
		},
	}
	_, err = x.Submit(spec).Wait()
	if err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("bad spec should fail with the worker's reason, got %v", err)
	}
}
