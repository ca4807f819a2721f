// Package service implements strexd's simulation-as-a-service core: a
// job store, a bounded admission queue with per-client round-robin
// fairness, singleflight coalescing of identical in-flight submissions,
// and HTTP handlers — all running every tenant's work on ONE shared
// runner pool behind ONE warm content-addressed cache.
//
// The design leans on the simulator's central invariant: a run is a
// pure function of its spec. That is what makes coalescing and caching
// semantically free — any two jobs with equal spec keys would have
// produced byte-identical results anyway, so the daemon may run one and
// answer both. Admission control then bounds the only scarce resource
// (simulator workers): flights queue up to a fixed depth, excess
// submissions are rejected with 429 + Retry-After, and dispatch is
// round-robin over clients so no tenant can starve another.
//
// See docs/SERVICE.md for the API specification and operational notes.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"strex"
	"strex/internal/obs"
	"strex/internal/runcache"
)

// Config configures a Server. Zero values select sane defaults.
type Config struct {
	// Parallel bounds concurrently executing simulations (<= 0 selects
	// GOMAXPROCS). Also the dispatcher count: there is never a reason
	// to pull more flights off the queue than can simulate at once.
	Parallel int
	// QueueDepth bounds queued flights; admission beyond it is refused
	// with ErrQueueFull/429 (default 1024).
	QueueDepth int
	// CacheDir enables the shared on-disk run+trace cache ("" =
	// disabled). One directory serves all tenants: any job's run warms
	// every identical job after it.
	CacheDir string
	// Limits bounds individual job specs (see Limits).
	Limits Limits
	// Retain is how long terminal jobs stay pollable before eviction
	// (default 2m). Retention is what bounds store memory under
	// sustained traffic.
	Retain time.Duration
	// MaxJobs caps retained jobs regardless of age (default 100000);
	// beyond it, the oldest terminal jobs are evicted early.
	MaxJobs int
	// MemoSize bounds the in-memory result memo (completed results by
	// spec key, LRU). 0 selects the default 1024; negative disables the
	// memo, forcing every repeat through the queue and the disk cache.
	MemoSize int
	// Logger receives the daemon's structured event log (admissions,
	// state transitions, drain events). Nil logs nothing: every call
	// routes through a no-op handler, so instrumentation sites never
	// need nil checks.
	Logger *slog.Logger
	// TimelineEvents caps the run-timeline ring recorded for jobs
	// submitted with Timeline: true (default 32768 events; the ring
	// keeps the earliest events and counts drops on overflow).
	TimelineEvents int
}

func (c *Config) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Retain <= 0 {
		c.Retain = 2 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 100000
	}
	if c.MemoSize == 0 {
		c.MemoSize = 1024
	}
	if c.TimelineEvents <= 0 {
		c.TimelineEvents = 1 << 15
	}
	c.Limits.fill()
}

// Lookup/cancel errors, mapped to HTTP statuses by the handler layer.
var (
	ErrNotFound = errors.New("service: no such job")
	ErrDraining = errors.New("service: server is draining")
	// ErrConflict marks an operation invalid in the job's current state
	// (e.g. cancelling a finished job).
	ErrConflict = errors.New("service: conflict")
)

// Server is the daemon core. Create with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg   Config
	pool  *strex.Pool
	cache *runcache.Cache
	q     *queue
	memo  *resultMemo // nil when disabled

	mu      sync.Mutex
	jobs    map[string]*Job
	flights map[string]*flight // pending/running flight per spec key

	log        *slog.Logger
	met        counters
	lat        latencyHists
	submitRate *obs.RateWindow
	start      time.Time
	seq        atomic.Int64
	draining   atomic.Bool

	wg       sync.WaitGroup // dispatchers
	stopJani chan struct{}
	stopOnce sync.Once
	janiWG   sync.WaitGroup
}

// New builds a Server and starts its dispatchers. The caller owns the
// HTTP listener; wire Handler into it.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	var cache *runcache.Cache
	if cfg.CacheDir != "" {
		var err error
		cache, err = runcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("service: open cache: %w", err)
		}
	}
	s := &Server{
		cfg:        cfg,
		pool:       strex.NewPool(cfg.Parallel, cache),
		cache:      cache,
		q:          newQueue(cfg.QueueDepth),
		jobs:       make(map[string]*Job),
		flights:    make(map[string]*flight),
		log:        obs.Or(cfg.Logger),
		submitRate: obs.NewRateWindow(60),
		start:      time.Now(),
		stopJani:   make(chan struct{}),
	}
	if cfg.MemoSize > 0 {
		s.memo = newResultMemo(cfg.MemoSize)
	}
	// Every replicate that actually simulates (cache-served ones have no
	// engine run to time) lands in the replicate latency histogram.
	s.pool.SetRunObserver(func(d time.Duration) { s.lat.replicate.Record(d.Nanoseconds()) })
	for i := 0; i < s.pool.Workers(); i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	s.janiWG.Add(1)
	go s.janitor()
	return s, nil
}

// Submit validates, normalizes and admits one job. The returned status
// is the job's birth certificate (id, state, queue position). Errors:
// validation errors (bad spec), ErrQueueFull (backpressure) and
// ErrDraining (shutdown in progress).
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	now := time.Now()
	s.met.submitted.Add(1)
	s.submitRate.Tick(now)
	if s.draining.Load() {
		return JobStatus{}, ErrDraining
	}
	if err := spec.normalize(s.cfg.Limits); err != nil {
		s.log.Info("job rejected", "client", spec.ClientID, "reason", "invalid spec", "err", err.Error())
		return JobStatus{}, err
	}
	client := spec.ClientID
	if client == "" {
		client = "anon"
		spec.ClientID = client
	}
	key := spec.Key()

	s.mu.Lock()
	defer s.mu.Unlock()
	job := &Job{
		ID:       fmt.Sprintf("j%06d-%s", s.seq.Add(1), key[:8]),
		ClientID: client,
		Spec:     spec,
		created:  now,
	}
	if !spec.Timeline {
		// A traced job must execute — a memoized result carries no
		// timeline — so only untraced specs consult the memory tier.
		if res, ok := s.memo.get(key); ok {
			// Memory-tier hit: an identical job already completed, and its
			// result is a pure function of the spec — settle at admission,
			// bypassing queue and dispatcher entirely.
			job.started = now
			s.finishJobLocked(job, StateDone, "", res, 0, 0, now)
			s.met.memoHits.Add(1)
			s.met.accepted.Add(1)
			s.jobs[job.ID] = job
			s.log.Info("job settled by memo", "job", job.ID, "key", key, "client", client, "workload", spec.Workload)
			return s.statusLocked(job), nil
		}
	}
	if fl, ok := s.flights[key]; ok {
		// Singleflight: attach to the pending run instead of queueing a
		// duplicate. The attached job's result will be byte-identical to
		// the leader's, because runs are pure functions of their specs.
		job.Coalesced = true
		job.fl = fl
		fl.jobs = append(fl.jobs, job)
		if fl.running {
			job.state = StateRunning
			job.started = now
		} else {
			job.state = StateQueued
		}
		s.met.coalesced.Add(1)
		s.log.Info("job coalesced", "job", job.ID, "key", key, "client", client, "state", job.state)
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		fl = &flight{key: key, client: client, spec: spec, ctx: ctx, cancel: cancel, enqueued: now}
		fl.total.Store(int64(spec.Seeds))
		fl.jobs = []*Job{job}
		if err := s.q.enqueue(fl); err != nil {
			cancel()
			if errors.Is(err, errQueueClosed) {
				err = ErrDraining
			}
			if errors.Is(err, ErrQueueFull) {
				s.met.rejected.Add(1)
			}
			s.log.Info("job rejected", "job", job.ID, "key", key, "client", client, "reason", err.Error())
			return JobStatus{}, err
		}
		job.fl = fl
		job.state = StateQueued
		s.flights[key] = fl
		s.log.Info("job queued", "job", job.ID, "key", key, "client", client,
			"workload", spec.Workload, "sched", spec.Sched, "seeds", spec.Seeds, "timeline", spec.Timeline)
	}
	s.met.accepted.Add(1)
	s.jobs[job.ID] = job
	return s.statusLocked(job), nil
}

// Status returns a point-in-time snapshot of one job.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(job), nil
}

// Result returns a completed job's deterministic result payload. The
// bool reports whether the job is terminal; a terminal job without a
// result failed or was cancelled (inspect the status).
func (s *Server) Result(id string) (*JobResult, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, ErrNotFound
	}
	return job.result, s.statusLocked(job), nil
}

// Timeline returns a terminal traced job's rendered Chrome trace-event
// JSON. The bool reports whether the job is terminal; a nil slice on a
// terminal job means it was not traced (or did not complete).
func (s *Server) Timeline(id string) ([]byte, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, ErrNotFound
	}
	return job.timeline, s.statusLocked(job), nil
}

// Cancel detaches the job from its flight and marks it canceled. The
// underlying run is cancelled only when no other job remains attached —
// coalesced peers keep it alive; context propagation stops a lone
// cancelled run at the engine's next poll boundary.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if terminal(job.state) {
		return s.statusLocked(job), fmt.Errorf("%w: job already %s", ErrConflict, job.state)
	}
	fl := job.fl
	for i, j := range fl.jobs {
		if j == job {
			fl.jobs = append(fl.jobs[:i], fl.jobs[i+1:]...)
			break
		}
	}
	s.finishJobLocked(job, StateCanceled, "canceled by client", nil, 0, 0, time.Now())
	s.log.Info("job canceled", "job", job.ID, "key", fl.key, "client", job.ClientID, "last", len(fl.jobs) == 0)
	if len(fl.jobs) == 0 {
		// Last interested party left: stop the work. A queued flight is
		// unlinked (it may already have been grabbed by a dispatcher —
		// runFlight re-checks); a running one stops at the next engine
		// poll. Either way no new submission may attach to it.
		if !fl.running {
			s.q.remove(fl)
		}
		if s.flights[fl.key] == fl {
			delete(s.flights, fl.key)
		}
		fl.cancel()
	}
	return s.statusLocked(job), nil
}

// statusLocked builds a status snapshot. Caller holds mu.
func (s *Server) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:         job.ID,
		State:      job.state,
		ClientID:   job.ClientID,
		Coalesced:  job.Coalesced,
		Error:      job.err,
		CreatedMs:  ms(job.created),
		StartedMs:  ms(job.started),
		FinishedMs: ms(job.finished),
	}
	if fl := job.fl; fl != nil {
		st.Done = int(fl.done.Load())
		st.Total = int(fl.total.Load())
		if job.state == StateQueued {
			st.QueuePosition = s.q.position(fl)
		}
	}
	if terminal(job.state) {
		g := job.generations
		st.Generations = &g
	}
	return st
}

// dispatch is one dispatcher loop: pull a flight, run it, settle every
// attached job. Dispatcher count equals the pool's worker count, so a
// dequeued flight starts simulating immediately.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		fl, ok := s.q.dequeue()
		if !ok {
			return
		}
		s.runFlight(fl)
	}
}

// runFlight executes one flight on the shared pool and settles its
// jobs. Never panics: replicate panics surface as errors from the pool.
func (s *Server) runFlight(fl *flight) {
	now := time.Now()
	s.lat.queueWait.Record(now.Sub(fl.enqueued).Nanoseconds())
	s.mu.Lock()
	if len(fl.jobs) == 0 {
		// Every submitter cancelled while the flight was queued (and the
		// queue removal lost the race with our dequeue). Nothing to do.
		if s.flights[fl.key] == fl {
			delete(s.flights, fl.key)
		}
		s.mu.Unlock()
		return
	}
	fl.running = true
	for _, j := range fl.jobs {
		j.state = StateRunning
		j.started = now
	}
	// Submit may attach followers as soon as the lock is released.
	jobs := len(fl.jobs)
	s.mu.Unlock()
	s.log.Info("flight started", "key", fl.key, "client", fl.client,
		"workload", fl.spec.Workload, "jobs", jobs, "wait_ms", now.Sub(fl.enqueued).Milliseconds())

	spec := fl.spec
	var tl *obs.Timeline
	if spec.Timeline {
		tl = obs.NewTimeline(s.cfg.TimelineEvents)
	}
	started := time.Now()
	var rr *strex.ReplicatedResult
	var olResult *JobResult
	var err error
	gens := 0
	if spec.openLoop() {
		// Open-loop flight: one run of the merged multi-tenant scenario
		// (normalize pinned seeds=1 and rejected -timeline). A cache-
		// absorbed run charges zero generations, like a warm replicate.
		fl.total.Store(1)
		var res *strex.OpenLoopResult
		var executed bool
		res, executed, err = s.pool.RunOpenLoopCtx(fl.ctx, spec.config(), spec.tenantSpecs(s.cfg.CacheDir), spec.kind())
		if err == nil {
			fl.done.Store(1)
			olResult = openLoopResultOf(spec, res)
			if executed {
				gens = 1
			}
		}
	} else {
		var draws []*strex.Workload
		draws, err = strex.ReplicateWorkloads(spec.Workload, spec.workloadOptions(s.cfg.CacheDir), spec.Seeds)
		if err == nil {
			onProgress := func(done, total int) {
				fl.done.Store(int64(done))
				fl.total.Store(int64(total))
			}
			if tl != nil {
				rr, gens, err = s.pool.RunDrawsTracedCtx(fl.ctx, spec.config(), draws, spec.kind(), tl, onProgress)
			} else {
				rr, gens, err = s.pool.RunDrawsCtx(fl.ctx, spec.config(), draws, spec.kind(), onProgress)
			}
		}
	}
	elapsed := time.Since(started)
	runMillis := elapsed.Milliseconds()
	s.lat.run.Record(elapsed.Nanoseconds())
	fl.cancel() // release the context's resources; the run is over

	var timeline []byte
	if tl != nil && err == nil {
		// Render once outside the lock; every attached job shares the
		// immutable bytes.
		var buf bytes.Buffer
		if werr := tl.WriteChrome(&buf); werr == nil {
			timeline = buf.Bytes()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
	s.met.generations.Add(int64(gens))
	now = time.Now()
	var result *JobResult
	if err == nil {
		if olResult != nil {
			result = olResult
		} else {
			result = resultOf(spec, rr)
		}
		if !spec.Timeline {
			s.memo.put(fl.key, result)
		}
	}
	switch {
	case err == nil:
		s.log.Info("flight done", "key", fl.key, "client", fl.client,
			"jobs", len(fl.jobs), "generations", gens, "run_ms", runMillis, "timeline_events", tl.Len())
	case errors.Is(err, context.Canceled):
		s.log.Info("flight canceled", "key", fl.key, "client", fl.client, "run_ms", runMillis)
	default:
		s.log.Warn("flight failed", "key", fl.key, "client", fl.client, "run_ms", runMillis, "err", err.Error())
	}
	for _, j := range fl.jobs {
		j.timeline = timeline
		switch {
		case err == nil:
			// Generations are charged to the leader; followers rode along
			// for free. A leader with 0 generations was absorbed by the
			// warm cache.
			g := 0
			if !j.Coalesced {
				g = gens
			}
			s.finishJobLocked(j, StateDone, "", result, g, runMillis, now)
		case errors.Is(err, context.Canceled):
			s.finishJobLocked(j, StateCanceled, "run canceled", nil, 0, runMillis, now)
		default:
			s.finishJobLocked(j, StateFailed, err.Error(), nil, 0, runMillis, now)
		}
	}
	fl.jobs = nil
}

// finishJobLocked moves a job to a terminal state and bumps the
// outcome counters. Caller holds mu.
func (s *Server) finishJobLocked(job *Job, state, errMsg string, result *JobResult, gens int, runMillis int64, now time.Time) {
	job.state = state
	job.err = errMsg
	job.result = result
	job.generations = gens
	job.runMillis = runMillis
	job.finished = now
	switch state {
	case StateDone:
		s.met.completed.Add(1)
		if gens == 0 {
			s.met.absorbed.Add(1)
		}
	case StateFailed:
		s.met.failed.Add(1)
	case StateCanceled:
		s.met.canceled.Add(1)
	}
}

// janitor evicts terminal jobs past the retention window (and the
// oldest beyond MaxJobs), keeping store memory bounded under sustained
// traffic.
func (s *Server) janitor() {
	defer s.janiWG.Done()
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJani:
			return
		case now := <-tick.C:
			s.evict(now)
		}
	}
}

func (s *Server) evict(now time.Time) {
	cutoff := now.Add(-s.cfg.Retain)
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminalJobs []*Job
	for id, j := range s.jobs {
		if !terminal(j.state) {
			continue
		}
		if j.finished.Before(cutoff) {
			delete(s.jobs, id)
		} else {
			terminalJobs = append(terminalJobs, j)
		}
	}
	over := len(s.jobs) - s.cfg.MaxJobs
	if over <= 0 {
		return
	}
	// Age out the oldest terminal jobs first (selection sort over the
	// overage is fine: eviction pressure, not a hot path).
	for ; over > 0 && len(terminalJobs) > 0; over-- {
		oldest := 0
		for i, j := range terminalJobs {
			if j.finished.Before(terminalJobs[oldest].finished) {
				oldest = i
			}
		}
		delete(s.jobs, terminalJobs[oldest].ID)
		terminalJobs = append(terminalJobs[:oldest], terminalJobs[oldest+1:]...)
	}
}

// Shutdown drains the daemon: new submissions are refused immediately,
// queued flights are settled as canceled (they never ran), and running
// flights are given until ctx's deadline to finish before their
// contexts are cancelled (stopping each run at its next poll boundary).
// Completed jobs stay pollable until the process exits — shutdown never
// drops a completed job.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	pending := s.q.close()
	s.log.Info("draining", "queued_flights_canceled", len(pending))
	now := time.Now()
	s.mu.Lock()
	for _, fl := range pending {
		if s.flights[fl.key] == fl {
			delete(s.flights, fl.key)
		}
		for _, j := range fl.jobs {
			s.finishJobLocked(j, StateCanceled, "server shutting down", nil, 0, 0, now)
		}
		fl.jobs = nil
		fl.cancel()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		n := len(s.flights)
		for _, fl := range s.flights {
			fl.cancel()
		}
		s.mu.Unlock()
		s.log.Warn("drain deadline exceeded", "running_flights_canceled", n)
		<-done // cancellation stops runs at the next poll boundary
	}
	s.stopOnce.Do(func() { close(s.stopJani) })
	s.janiWG.Wait()
	s.log.Info("drained")
	return err
}

// CacheStats exposes the shared cache's traffic counters.
func (s *Server) CacheStats() runcache.Stats { return s.cache.Stats() }
