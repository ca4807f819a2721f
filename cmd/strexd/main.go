// Command strexd is the STREX simulation-as-a-service daemon: a
// long-lived HTTP/JSON server that accepts run specifications and
// executes them on one shared worker pool behind a bounded admission
// queue with per-client round-robin fairness, coalescing identical
// in-flight submissions (singleflight) and memoizing completed runs in
// one warm content-addressed cache shared by every tenant.
//
// Usage:
//
//	strexd [-addr HOST:PORT] [-parallel N] [-queue DEPTH]
//	       [-cache-dir DIR] [-no-cache] [-retain DUR]
//	       [-max-txns N] [-max-seeds N] [-max-cores N]
//	       [-log-level LEVEL] [-log-format text|json]
//	       [-debug-addr HOST:PORT] [-quiet]
//
// The API (see docs/SERVICE.md for the full specification):
//
//	POST   /v1/jobs               submit a job (202; 429 when overloaded)
//	GET    /v1/jobs/{id}          status (incl. queue position, progress)
//	GET    /v1/jobs/{id}/result   deterministic result payload
//	GET    /v1/jobs/{id}/stream   progress as chunked JSON lines
//	GET    /v1/jobs/{id}/timeline Chrome trace-event JSON (traced jobs)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/metrics            QPS, queue depth, latency, cache, jobs
//	GET    /v1/version            build provenance
//	GET    /v1/healthz            liveness
//	GET    /metrics               Prometheus text exposition
//
// Structured logs (job lifecycle + HTTP access log) go to stderr;
// -log-level/-log-format tune them and -quiet silences them entirely.
// -debug-addr serves net/http/pprof and expvar on a second, typically
// loopback-only, listener (see docs/OBSERVABILITY.md).
//
// SIGINT/SIGTERM drain gracefully: new submissions are refused, queued
// jobs are settled as canceled, running jobs get -drain-timeout to
// finish before their contexts are cancelled.
//
// By default the cache lives in the user cache directory
// (os.UserCacheDir()/strex), so repeated daemon runs stay warm across
// restarts; -no-cache runs fully cold.
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on DefaultServeMux, served by -debug-addr only
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served by -debug-addr only
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"strex/internal/obs"
	"strex/internal/runner"
	"strex/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8461", "listen address")
	parallel := flag.Int("parallel", 0, "concurrent simulator runs (<= 0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 1024, "admission queue depth (flights; excess submissions get 429)")
	cacheDir := flag.String("cache-dir", "", "shared trace+result cache directory (empty = user cache dir)")
	noCache := flag.Bool("no-cache", false, "run without the shared cache")
	retain := flag.Duration("retain", 2*time.Minute, "how long finished jobs stay pollable")
	memo := flag.Int("memo", 1024, "in-memory result memo entries (negative = disabled)")
	maxTxns := flag.Int("max-txns", 4096, "per-job transaction limit")
	maxSeeds := flag.Int("max-seeds", 16, "per-job replicate limit")
	maxCores := flag.Int("max-cores", 32, "per-job simulated-core limit (at most 64)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace for running jobs on shutdown")
	logLevel := flag.String("log-level", "info", "structured log level (debug, info, warn, error)")
	logFormat := flag.String("log-format", "text", "structured log format (text, json)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof + expvar on this address (empty = off)")
	timelineEvents := flag.Int("timeline-events", 1<<15, "run-timeline ring capacity for timeline:true jobs")
	quiet := flag.Bool("quiet", false, "suppress all log output")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if *quiet {
		logger = obs.NopLogger()
	}
	logf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "strexd: "+format+"\n", args...)
		}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "strexd:", err)
		os.Exit(1)
	}

	dir := *cacheDir
	if dir == "" && !*noCache {
		base, err := os.UserCacheDir()
		if err != nil {
			fail(fmt.Errorf("no user cache dir (%v); pass -cache-dir or -no-cache", err))
		}
		dir = filepath.Join(base, "strex")
	}
	if *noCache {
		dir = ""
	}

	srv, err := service.New(service.Config{
		Parallel:       *parallel,
		QueueDepth:     *queueDepth,
		CacheDir:       dir,
		Retain:         *retain,
		MemoSize:       *memo,
		Logger:         logger,
		TimelineEvents: *timelineEvents,
		Limits: service.Limits{
			MaxTxns:  *maxTxns,
			MaxSeeds: *maxSeeds,
			MaxCores: *maxCores,
		},
	})
	if err != nil {
		fail(err)
	}

	if *debugAddr != "" {
		// pprof and expvar register on http.DefaultServeMux; serving that
		// mux only here keeps the profiling surface off the API listener.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(fmt.Errorf("debug listener: %w", err))
		}
		go func() {
			logf("debug (pprof, expvar) on http://%s", dln.Addr())
			_ = http.Serve(dln, http.DefaultServeMux)
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	cacheLabel := dir
	if cacheLabel == "" {
		cacheLabel = "(disabled)"
	}
	logf("listening on http://%s  workers=%d queue=%d cache=%s",
		ln.Addr(), runner.ResolveWorkers(*parallel), *queueDepth, cacheLabel)

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		logf("%v: draining (grace %v)", got, *drainTimeout)
	case err := <-errCh:
		fail(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("drain incomplete: %v (running jobs were cancelled)", err)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = hs.Shutdown(shCtx)
	logf("stopped")
}
