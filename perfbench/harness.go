package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workDir string    // scratch directory inside the checkout, removed at exit
	log     io.Writer // human-readable progress and tables
}

// workloadRun is one workload instance inside one process.
//
// The harness calls setup and pass in the order the workload's set-up
// policy asks for (setupsFirst), times them, and then calls finish to
// check outputs and fill metrics. tr is nil on untraced set-ups and
// passes; parent is the span the workload's spans hang under. Both
// report the host time of each unit of their work (an engine run, a
// facade call, a job) to cal, which interleaves calibration slices.
type workloadRun interface {
	setup(tr *Tracer, parent int, cal *calibrator) error
	pass(tr *Tracer, parent int, cal *calibrator) error
	finish(out *outcome, t *timings)
	close()
}

// workloadSpec describes a workload to the harness.
type workloadSpec struct {
	name string
	why  string
	// setupsFirst > 0 runs that many set-ups before the first pass and
	// none after; 0 runs one set-up before every pass.
	setupsFirst int
	start       func(cfg runConfig) (workloadRun, error)
}

// Pass-count limits. Every run makes at least minPasses timed passes,
// so each host-time metric is a median of at least four; a traced run
// alternates untraced and traced passes, two of each at least. No pass
// starts after startCutoff, which keeps a run inside its time limit on
// a slow host.
const (
	minPasses       = 4
	minTracedPasses = 4
	startCutoff     = 110 * time.Second
)

// timings are the host-time measurements the harness takes around each
// set-up and pass. Times are in reference seconds (see calib.go) and
// leave the calibration slices out.
type timings struct {
	setup      []float64 // reference seconds per set-up
	wall       []float64 // reference seconds per untraced timed pass
	factor     []float64 // reference seconds per host second, per untraced timed pass
	alloc      []float64 // heap MB allocated per untraced timed pass
	tracedWall []float64 // reference seconds per traced timed pass
	gcCycles   []float64 // GC cycles per traced timed pass
	gcPauseMs  []float64 // GC pause ms per traced timed pass
	spans      []Span
}

// outcome collects a run's operation counts, check failures and
// metric values.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int // sample count behind an end-to-end metric
	spans     []Span         // traced runs: every recorded span
	log       io.Writer
}

func newOutcome(log io.Writer) *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}, log: log}
}

// fail records a failed check as one failed operation.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// drive runs one workload: its set-ups and timed passes, then its
// checks. It returns the outcome with every metric filled.
func drive(spec workloadSpec, cfg runConfig) (*outcome, error) {
	processStart := time.Now()
	w, err := spec.start(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var tr *Tracer
	if cfg.trace {
		tr = newTracer()
	}
	t := &timings{}
	cal := newCalibrator()
	for i := 0; i < spec.setupsFirst; i++ {
		if err := runSetup(w, t, cal, tr, -1); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
	}

	need := minPasses
	if cfg.trace {
		need = minTracedPasses
	}
	var timed time.Duration
	for i := 0; i < need || timed < cfg.seconds; i++ {
		if i > 0 && time.Since(processStart) > startCutoff {
			break
		}
		traced := cfg.trace && i%2 == 1
		p, root := (*Tracer)(nil), -1
		if traced {
			p, root = tr, tr.Begin(-1, "harness", "pass", fmt.Sprint(i))
		}
		if spec.setupsFirst == 0 {
			if err := runSetup(w, t, cal, p, root); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		timedSpan := p.Begin(root, "harness", "timed", fmt.Sprint(i))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		cal.open(p, timedSpan)
		err := w.pass(p, timedSpan, cal)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		p.End(timedSpan)
		p.End(root)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		timed += wall
		f := cal.factor()
		ref := (wall - cal.total).Seconds() * f
		if traced {
			t.tracedWall = append(t.tracedWall, ref)
			t.gcCycles = append(t.gcCycles, float64(after.NumGC-before.NumGC))
			t.gcPauseMs = append(t.gcPauseMs, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		} else {
			t.wall = append(t.wall, ref)
			t.factor = append(t.factor, f)
			t.alloc = append(t.alloc, float64(after.TotalAlloc-before.TotalAlloc-cal.allocs)/1e6)
			fmt.Fprintf(cfg.log, "pass %d: %.3f host s (%.3f s calibrating, %d slices), factor %.3f, %.3f reference s\n",
				i, wall.Seconds(), cal.total.Seconds(), cal.n, f, ref)
		}
	}
	t.spans = tr.Spans()
	// Peak RSS of the set-ups and passes, before the checks re-run cells.
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}

	out := newOutcome(cfg.log)
	w.finish(out, t)
	out.e2e["setup_s"] = median(t.setup)
	out.samples["setup_s"] = len(t.setup)
	out.e2e["wall_s"] = median(t.wall)
	out.samples["wall_s"] = len(t.wall)
	out.e2e["alloc_mb"] = median(t.alloc)
	out.samples["alloc_mb"] = len(t.alloc)
	out.e2e["max_rss_mb"] = rss
	out.samples["max_rss_mb"] = 1
	if cfg.trace {
		fillTraceLayer(out, t)
		out.spans = t.spans
	}
	return out, nil
}

// runSetup times one set-up, in a span under parent (-1 makes it a
// root).
func runSetup(w workloadRun, t *timings, cal *calibrator, tr *Tracer, parent int) error {
	id := tr.Begin(parent, "harness", "setup", "")
	defer tr.End(id)
	runtime.GC()
	t0 := time.Now()
	cal.open(tr, id)
	err := w.setup(tr, id, cal)
	t.setup = append(t.setup, (time.Since(t0)-cal.total).Seconds()*cal.factor())
	return err
}

// fillTraceLayer adds the metrics every traced run derives from its
// spans and runtime counters.
func fillTraceLayer(out *outcome, t *timings) {
	self := layerSelf(t.spans)
	var total float64
	for _, l := range spanLayers {
		out.layer["self_s."+l] = self[l].Seconds()
		total += self[l].Seconds()
	}
	var rootWall time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			rootWall += s.End - s.Start
		}
		if !slices.Contains(spanLayers, s.Layer) {
			out.fail("span %q has unknown layer %q", s.Name, s.Layer)
		}
	}
	out.layer["self_s.total"] = total
	out.layer["harness.traced_wall_s"] = rootWall.Seconds()
	if d := total - rootWall.Seconds(); d > 1e-6 || d < -1e-6 {
		out.fail("per-layer self times sum to %.6fs, traced wall clock is %.6fs", total, rootWall.Seconds())
	}
	if len(t.tracedWall) > 0 && len(t.wall) > 0 {
		out.layer["harness.trace_overhead"] = median(t.tracedWall)/median(t.wall) - 1
	}
	if len(t.gcCycles) > 0 {
		out.layer["go.gc_cycles"] = median(t.gcCycles)
		out.layer["go.gc_pause_ms"] = median(t.gcPauseMs)
	}
}

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
