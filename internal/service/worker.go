package service

// worker.go is the worker side of the sharded execution mode
// (internal/shard): a minimal HTTP server that executes simulation runs
// by wire spec. It reuses the daemon's machinery — the runner.Executor
// with its engine pool, in-process dedup and run-cache integration, and
// this package's JSON/instrumentation conventions — but deliberately
// not its job store: a worker is stateless by design, so killing one
// loses nothing the coordinator cannot resubmit (the determinism
// contract makes every re-execution byte-identical).
//
// Endpoints:
//
//	POST /v1/run      execute one shard.WireSpec, reply shard.RunReply
//	GET  /v1/workerz  shard.WorkerInfo handshake (slots, runs, cache)
//	GET  /v1/healthz  liveness
//	GET  /metrics     Prometheus text exposition (strexworker_*)
//
// A 400 marks the spec itself unservable (the coordinator fails the run
// without retrying); any 5xx or transport failure is the coordinator's
// cue to retry elsewhere. See docs/SHARDING.md.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"strex/internal/memsys"
	"strex/internal/obs"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/shard"
	"strex/internal/workload"
)

// WorkerConfig configures a sharding worker.
type WorkerConfig struct {
	// Parallel bounds concurrent simulations (<= 0: GOMAXPROCS). The
	// worker advertises the resolved value in its handshake and the
	// coordinator keeps at most that many RPCs in flight against it.
	Parallel int
	// Cache is the run cache, ideally the directory shared with the
	// coordinator — the fleet's coordination substrate: sets generate
	// once fleet-wide and results are served across processes.
	Cache *runcache.Cache
	// Log receives the access log (nil = silent).
	Log *slog.Logger
}

// Worker serves simulation runs over HTTP. Construct with NewWorker,
// expose Handler (or use ServeWorker).
type Worker struct {
	exec  *runner.Executor
	cache *runcache.Cache
	log   *slog.Logger
	start time.Time

	runs     atomic.Int64 // run RPCs accepted (decoded)
	executed atomic.Int64 // served by a fresh simulation
	cached   atomic.Int64 // served by the disk cache
	badSpecs atomic.Int64 // rejected with 400
	failed   atomic.Int64 // failed with 500

	runLat  *obs.Hist // full serve latency of successful runs (ns)
	httpLat *obs.Hist // handler latency, all endpoints (ns)

	// sets memoizes materialized workload sets by SetID. Every RPC for
	// the same set then replays one in-memory *workload.Set, which is
	// also what arms the executor's in-process dedup (it keys on the set
	// pointer). Entries live for the worker's lifetime — a fleet serves
	// a handful of sets, not an unbounded stream.
	setMu sync.Mutex
	sets  map[string]*setEntry
}

type setEntry struct {
	once sync.Once
	set  *workload.Set
	err  error
}

// NewWorker builds a worker with its own executor.
func NewWorker(cfg WorkerConfig) *Worker {
	exec := runner.New(cfg.Parallel)
	exec.SetCache(cfg.Cache)
	return &Worker{
		exec:    exec,
		cache:   cfg.Cache,
		log:     obs.Or(cfg.Log),
		start:   time.Now(),
		runLat:  obs.NewHist(),
		httpLat: obs.NewHist(),
		sets:    make(map[string]*setEntry),
	}
}

// Handler returns the worker's HTTP API.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", wk.handleRun)
	mux.HandleFunc("/v1/workerz", wk.handleWorkerz)
	mux.HandleFunc("/v1/healthz", wk.handleHealthz)
	mux.HandleFunc("/metrics", wk.handlePrometheus)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		wk.httpLat.Record(elapsed.Nanoseconds())
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		wk.log.Info("http", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "bytes", sw.bytes, "dur_ms", elapsed.Milliseconds())
	})
}

// setFor materializes (or recalls) the wire spec's workload set.
// Concurrent RPCs for the same set block on one generation.
func (wk *Worker) setFor(ref shard.SetRef) (*workload.Set, error) {
	id := ref.SetID()
	wk.setMu.Lock()
	e, ok := wk.sets[id]
	if !ok {
		e = &setEntry{}
		wk.sets[id] = e
	}
	wk.setMu.Unlock()
	e.once.Do(func() { e.set, e.err = ref.Materialize(wk.cache) })
	return e.set, e.err
}

func (wk *Worker) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST /v1/run")
		return
	}
	var ws shard.WireSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ws); err != nil {
		wk.badSpecs.Add(1)
		writeError(w, http.StatusBadRequest, "bad wire spec: "+err.Error())
		return
	}
	if c := ws.Config.Cores; c < 1 || c > memsys.MaxCores {
		wk.badSpecs.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("cores %d out of range [1, %d]", c, memsys.MaxCores))
		return
	}
	wk.runs.Add(1)
	start := time.Now()
	// Materialization and scheduler resolution are pure functions of the
	// spec, so their failures are the spec's fault: 400, no retry.
	set, err := wk.setFor(ws.Set)
	if err != nil {
		wk.badSpecs.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mk, err := shard.SchedulerFor(ws.SchedID)
	if err != nil {
		wk.badSpecs.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	fut := wk.exec.Submit(runner.Spec{
		Label:    ws.Label,
		Config:   ws.Config,
		Set:      set,
		Sched:    mk,
		SchedID:  ws.SchedID,
		CacheKey: ws.CacheKey,
		// The request context cancels the run when the coordinator hangs
		// up — a stolen or speculated duplicate that lost the race stops
		// at the engine's next poll boundary instead of running to
		// completion for nobody.
		Ctx: r.Context(),
	})
	res, err := fut.Wait()
	if err != nil {
		wk.failed.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	switch {
	case fut.Executed():
		wk.executed.Add(1)
	case fut.FromCache():
		wk.cached.Add(1)
	}
	wk.runLat.RecordSince(start)
	writeJSON(w, http.StatusOK, shard.RunReply{
		Record:   runcache.RecordOf(res),
		Executed: fut.Executed(),
		Cached:   fut.FromCache(),
		Millis:   time.Since(start).Milliseconds(),
	})
}

func (wk *Worker) handleWorkerz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/workerz")
		return
	}
	writeJSON(w, http.StatusOK, shard.WorkerInfo{
		Parallel: wk.exec.Workers(),
		Runs:     wk.runs.Load(),
		CacheDir: wk.cache.Dir(),
	})
}

func (wk *Worker) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true})
}

// handlePrometheus exposes the worker's counters in the same exposition
// dialect as the daemon's (validated by obs.ParseProm in tests).
func (wk *Worker) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /metrics")
		return
	}
	runs := wk.runs.Load()
	executed := wk.executed.Load()
	cached := wk.cached.Load()
	failed := wk.failed.Load()
	deduped := runs - executed - cached - failed
	if deduped < 0 {
		deduped = 0 // runs still in flight haven't settled an outcome yet
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Counter("strexworker_runs_total", "Run RPCs accepted.", float64(runs))
	p.CounterVec("strexworker_run_outcomes_total", "Settled run RPCs by outcome.", "outcome",
		map[string]float64{
			"executed": float64(executed),
			"cached":   float64(cached),
			"deduped":  float64(deduped),
			"failed":   float64(failed),
		})
	p.Counter("strexworker_bad_specs_total", "Run RPCs rejected with 400.", float64(wk.badSpecs.Load()))
	p.Gauge("strexworker_slots", "Concurrent simulation bound.", float64(wk.exec.Workers()))
	p.Gauge("strexworker_uptime_seconds", "Seconds since the worker started.", time.Since(wk.start).Seconds())

	st := wk.cache.Stats()
	p.Gauge("strexworker_cache_enabled", "1 when a run cache is attached.", boolGauge(wk.cache.Enabled()))
	p.Counter("strexworker_cache_trace_hits_total", "Workload trace cache hits.", float64(st.TraceHits))
	p.Counter("strexworker_cache_trace_misses_total", "Workload trace cache misses.", float64(st.TraceMisses))
	p.Counter("strexworker_cache_result_hits_total", "Run result cache hits.", float64(st.ResultHits))
	p.Counter("strexworker_cache_result_misses_total", "Run result cache misses.", float64(st.ResultMisses))
	p.Counter("strexworker_cache_trace_corrupt_total", "Trace cache misses on a present but unreadable artifact.", float64(st.TraceCorrupt))
	p.Counter("strexworker_cache_result_corrupt_total", "Result cache misses on a present but unreadable record.", float64(st.ResultCorrupt))
	p.Counter("strexworker_cache_footprint_hits_total", "Hybrid footprint record hits.", float64(st.FootprintHits))
	p.Counter("strexworker_cache_footprint_misses_total", "Hybrid footprint record misses.", float64(st.FootprintMisses))
	p.Counter("strexworker_cache_footprint_corrupt_total", "Footprint record misses on a present but unreadable record.", float64(st.FootprintCorrupt))

	p.Histogram("strexworker_run_seconds", "Run RPC serve latency (successful runs).", wk.runLat.Snapshot(), 1e-9)
	p.Histogram("strexworker_http_request_seconds", "HTTP handler latency, all endpoints.", wk.httpLat.Snapshot(), 1e-9)
	if err := p.Err(); err != nil {
		wk.log.Warn("prometheus exposition write failed", "err", err.Error())
	}
}

// ServeWorker binds addr, announces the bound URL through ready (ports
// like ":0" resolve to an ephemeral one), and serves until ctx is
// cancelled, then shuts down gracefully — in-flight runs get a drain
// window before the listener dies. This is the whole `-worker` mode of
// the CLIs.
func ServeWorker(ctx context.Context, addr string, cfg WorkerConfig, ready func(url string)) error {
	wk := NewWorker(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if ready != nil {
		ready("http://" + ln.Addr().String())
	}
	srv := &http.Server{Handler: wk.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
	}
	return nil
}
