package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"strex/internal/obs"
)

// maxBody caps request bodies: a JobSpec is a few hundred bytes, so a
// small bound ends pathological uploads early.
const maxBody = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs               submit (202, 400, 429, 503)
//	GET    /v1/jobs/{id}          status snapshot
//	GET    /v1/jobs/{id}/result   deterministic result payload
//	GET    /v1/jobs/{id}/stream   progress as chunked JSON lines
//	GET    /v1/jobs/{id}/timeline Chrome trace-event JSON (traced jobs)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/metrics            counters, gauges, QPS, latency, cache
//	GET    /v1/version            build provenance
//	GET    /v1/healthz            liveness + draining flag
//	GET    /metrics               Prometheus text exposition
//
// Paths are routed by hand (not ServeMux patterns) to stay within the
// module's go 1.21 language level. Every request passes through an
// access-log + latency middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handlePrometheus)
	return s.instrument(mux)
}

// statusWriter captures status and byte count for the access log while
// forwarding Flush (the stream endpoint depends on it).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with the handler-latency histogram and the
// structured access log (one line per completed request).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		s.lat.http.Record(elapsed.Nanoseconds())
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("http", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "bytes", sw.bytes, "dur_ms", elapsed.Milliseconds())
	})
}

type errorBody struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST /v1/jobs")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	if spec.ClientID == "" {
		spec.ClientID = r.Header.Get("X-Client-ID")
	}
	st, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the queue is the overload buffer, and it is
		// full. Clients back off and retry; 1s is one dispatch's worth
		// of drain at typical run lengths.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	if id == "" || strings.Contains(sub, "/") {
		http.NotFound(w, r)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.serveStatus(w, id)
	case sub == "" && r.Method == http.MethodDelete:
		s.serveCancel(w, id)
	case sub == "result" && r.Method == http.MethodGet:
		s.serveResult(w, id)
	case sub == "stream" && r.Method == http.MethodGet:
		s.serveStream(w, r, id)
	case sub == "timeline" && r.Method == http.MethodGet:
		s.serveTimeline(w, id)
	case sub == "" || sub == "result" || sub == "stream" || sub == "timeline":
		writeError(w, http.StatusMethodNotAllowed, "unsupported method")
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) serveStatus(w http.ResponseWriter, id string) {
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) serveCancel(w http.ResponseWriter, id string) {
	st, err := s.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrConflict):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), State: st.State})
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// resultEnvelope wraps the deterministic result payload with the
// volatile per-job facts, keeping the two strictly separate so clients
// may byte-compare `result` across repeats.
type resultEnvelope struct {
	ID string `json:"id"`
	// Generations: fresh simulator executions this job caused; 0 means
	// fully absorbed by coalescing/cache.
	Generations int   `json:"generations"`
	RunMillis   int64 `json:"run_millis"`
	// Result is deterministic: a pure function of the normalized spec.
	Result *JobResult `json:"result"`
}

func (s *Server) serveResult(w http.ResponseWriter, id string) {
	res, st, err := s.Result(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	switch st.State {
	case StateDone:
		gens := 0
		if st.Generations != nil {
			gens = *st.Generations
		}
		var runMillis int64
		s.mu.Lock()
		if j, ok := s.jobs[id]; ok { // may have been evicted since Result
			runMillis = j.runMillis
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resultEnvelope{ID: id, Generations: gens, RunMillis: runMillis, Result: res})
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.Error, State: st.State})
	case StateCanceled:
		writeJSON(w, http.StatusGone, errorBody{Error: "job canceled", State: st.State})
	default:
		// Not terminal yet: 202 + the status snapshot, so pollers can
		// use this endpoint alone.
		writeJSON(w, http.StatusAccepted, st)
	}
}

// serveStream writes the job's status as JSON lines (one object per
// line, chunked transfer) until the job reaches a terminal state — a
// poll-free progress feed for CLI clients.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, id string) {
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	write := func(st JobStatus) bool {
		if err := enc.Encode(st); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !write(st) || terminal(st.State) {
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last := st
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
		st, err := s.Status(id)
		if err != nil {
			return // evicted mid-stream
		}
		// Emit on any observable change, and always emit the terminal
		// line.
		if st.State != last.State || st.Done != last.Done || st.QueuePosition != last.QueuePosition {
			if !write(st) {
				return
			}
			last = st
		}
		if terminal(st.State) {
			return
		}
	}
}

// serveTimeline returns a traced job's Chrome trace-event JSON. A job
// still in flight answers 202 + its status (poll and retry); a terminal
// job that was not traced (or did not complete) answers 404.
func (s *Server) serveTimeline(w http.ResponseWriter, id string) {
	tl, st, err := s.Timeline(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if !terminal(st.State) {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	if tl == nil {
		writeError(w, http.StatusNotFound, "no timeline for this job (submit with \"timeline\": true)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(tl)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/version")
		return
	}
	writeJSON(w, http.StatusOK, obs.Build())
}

// handlePrometheus serves every counter, gauge and latency histogram in
// Prometheus text exposition format (validated in CI by obs.ParseProm).
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /metrics")
		return
	}
	m := s.snapshotMetrics(time.Now())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	p.Counter("strexd_jobs_submitted_total", "Job submissions received, including rejected.", float64(m.Counters.Submitted))
	p.Counter("strexd_jobs_accepted_total", "Jobs admitted (queued or coalesced).", float64(m.Counters.Accepted))
	p.Counter("strexd_jobs_rejected_total", "Submissions refused with 429 backpressure.", float64(m.Counters.Rejected))
	p.Counter("strexd_jobs_coalesced_total", "Jobs attached to an existing in-flight run.", float64(m.Counters.Coalesced))
	p.Counter("strexd_jobs_completed_total", "Jobs finished in state done.", float64(m.Counters.Completed))
	p.Counter("strexd_jobs_failed_total", "Jobs finished in state failed.", float64(m.Counters.Failed))
	p.Counter("strexd_jobs_canceled_total", "Jobs finished in state canceled.", float64(m.Counters.Canceled))
	p.Counter("strexd_jobs_absorbed_total", "Done jobs that caused zero fresh simulator executions.", float64(m.Counters.Absorbed))
	p.Counter("strexd_memo_hits_total", "Submissions settled at admission by the in-memory result memo.", float64(m.Counters.MemoHits))
	p.Counter("strexd_generations_total", "Fresh simulator executions (per replicate).", float64(m.Counters.Generations))
	p.Counter("strexd_workload_generations_total", "Workload trace generations process-wide.", float64(m.WorkloadGenerations))

	p.Gauge("strexd_uptime_seconds", "Seconds since the daemon started.", m.UptimeSecs)
	p.Gauge("strexd_draining", "1 while the daemon refuses new submissions.", boolGauge(m.Draining))
	p.Gauge("strexd_workers", "Simulator worker (and dispatcher) count.", float64(m.Workers))
	p.Gauge("strexd_queue_depth", "Flights currently queued for dispatch.", float64(m.Queue.Depth))
	p.Gauge("strexd_queue_capacity", "Admission queue capacity.", float64(m.Queue.Capacity))
	p.Gauge("strexd_queue_clients", "Distinct clients with queued flights.", float64(m.Queue.Clients))
	p.Gauge("strexd_memo_entries", "In-memory result memo occupancy.", float64(m.MemoEntries))
	jobs := make(map[string]float64, len(m.Jobs))
	for st, n := range m.Jobs {
		jobs[st] = float64(n)
	}
	p.GaugeVec("strexd_jobs", "Jobs retained in the store, by state.", "state", jobs)
	p.GaugeVec("strexd_submit_qps", "Submission rate over trailing windows.", "window", map[string]float64{
		"1s": m.SubmitQPS1s, "10s": m.SubmitQPS10s, "60s": m.SubmitQPS60s,
	})

	p.Gauge("strexd_cache_enabled", "1 when the shared on-disk run cache is attached.", boolGauge(m.Cache.Enabled))
	p.Counter("strexd_cache_trace_hits_total", "Workload trace cache hits.", float64(m.Cache.TraceHits))
	p.Counter("strexd_cache_trace_misses_total", "Workload trace cache misses.", float64(m.Cache.TraceMisses))
	p.Counter("strexd_cache_result_hits_total", "Run result cache hits.", float64(m.Cache.ResultHits))
	p.Counter("strexd_cache_result_misses_total", "Run result cache misses.", float64(m.Cache.ResultMisses))
	p.Counter("strexd_cache_trace_corrupt_total", "Trace cache misses on a present but unreadable artifact.", float64(m.Cache.TraceCorrupt))
	p.Counter("strexd_cache_result_corrupt_total", "Result cache misses on a present but unreadable record.", float64(m.Cache.ResultCorrupt))
	p.Counter("strexd_cache_footprint_hits_total", "Hybrid footprint record hits.", float64(m.Cache.FootprintHits))
	p.Counter("strexd_cache_footprint_misses_total", "Hybrid footprint record misses.", float64(m.Cache.FootprintMisses))
	p.Counter("strexd_cache_footprint_corrupt_total", "Footprint record misses on a present but unreadable record.", float64(m.Cache.FootprintCorrupt))
	p.Counter("strexd_cache_read_bytes_total", "Bytes read from the run cache.", float64(m.Cache.BytesRead))
	p.Counter("strexd_cache_written_bytes_total", "Bytes written to the run cache.", float64(m.Cache.BytesWritten))

	// Histograms are recorded in nanoseconds; scale to Prometheus'
	// base-unit seconds on the way out.
	p.Histogram("strexd_queue_wait_seconds", "Flight wait from admission to dispatch.", s.lat.queueWait.Snapshot(), 1e-9)
	p.Histogram("strexd_run_seconds", "Flight run duration, dispatch to settle.", s.lat.run.Snapshot(), 1e-9)
	p.Histogram("strexd_replicate_seconds", "Single replicate engine execution.", s.lat.replicate.Snapshot(), 1e-9)
	p.Histogram("strexd_http_request_seconds", "HTTP handler latency, all endpoints.", s.lat.http.Snapshot(), 1e-9)

	if err := p.Err(); err != nil {
		s.log.Warn("prometheus exposition write failed", "err", err.Error())
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/metrics")
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotMetrics(time.Now()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"ok":       true,
		"draining": s.draining.Load(),
	})
}
