package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	rtmetrics "runtime/metrics"
	"strconv"

	"strex/internal/obs"
	"strex/internal/trace"
)

// digests.json holds the expected output digest of each workload at the
// tuning seed (1) and at a held-back seed (2) that no change is tuned
// on. Regenerate an entry only for a change that is meant to alter
// simulated results; the run prints the digest it computed.
//
//go:embed digests.json
var digestsJSON []byte

// checkDigest compares a run's output digest with the committed one for
// its seed, when there is one, and logs it either way.
func checkDigest(out *outcome, cfg runConfig, workload, digest string) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		out.fail("digests.json: %v", err)
		return
	}
	want, ok := all[workload][strconv.FormatUint(cfg.seed, 10)]
	status := "no committed digest for this seed; checked for determinism and against the reference loop"
	switch {
	case ok && want == digest:
		status = "matches the committed digest"
	case ok:
		status = "DIFFERS from the committed digest " + want
		out.fail("%s seed %d digest %s differs from the committed %s", workload, cfg.seed, digest, want)
	}
	fmt.Fprintf(cfg.log, "digest %s seed %d: %s (%s)\n", workload, cfg.seed, digest, status)
}

// compileDelta is a snapshot, or a difference, of the trace package's
// process-wide segment-compile counters.
type compileDelta struct {
	tables, entries, segs, nanos uint64
}

func readCompile() compileDelta {
	t, e, s, n := trace.CompileStats()
	return compileDelta{t, e, s, n}
}

func (c compileDelta) sub(o compileDelta) compileDelta {
	return compileDelta{c.tables - o.tables, c.entries - o.entries, c.segs - o.segs, c.nanos - o.nanos}
}

// heapObjects returns the number of heap objects allocated so far by
// the process, without stopping the world.
func heapObjects() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// timelineEvents bounds the run timeline a segment-share re-run keeps;
// a run that overflows it fails the share measurement.
const timelineEvents = 1 << 20

// segRetired returns the instructions a run retired through segment
// replay: its timeline's seg-run spans, which retire one instruction
// per cycle, summed.
func segRetired(tl *obs.Timeline) (uint64, error) {
	if tl.Dropped() > 0 {
		return 0, fmt.Errorf("run timeline dropped %d events", tl.Dropped())
	}
	var n uint64
	for _, e := range tl.Events() {
		if e.Kind == obs.KindSegRun {
			n += e.End - e.Start
		}
	}
	return n, nil
}

// medianOf returns the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

// schedRates accumulates exact per-scheduler cache miss and context
// switch rates from run statistics.
type schedRates map[string]*[4]float64 // instructions, I-misses, D-misses, switches

func (r schedRates) add(sched string, instrs uint64, impki, dmpki float64, switches uint64) {
	a := r[sched]
	if a == nil {
		a = new([4]float64)
		r[sched] = a
	}
	a[0] += float64(instrs)
	a[1] += impki * float64(instrs) / 1000
	a[2] += dmpki * float64(instrs) / 1000
	a[3] += float64(switches)
}

// fill sets cache.l1i_mpki.<sched>, cache.l1d_mpki.<sched> and, when
// STREX ran, sched.switches_per_kinstr.strex.
func (r schedRates) fill(out *outcome) {
	for s, a := range r {
		out.layer["cache.l1i_mpki."+s] = a[1] / a[0] * 1000
		out.layer["cache.l1d_mpki."+s] = a[2] / a[0] * 1000
	}
	if a := r["strex"]; a != nil {
		out.layer["sched.switches_per_kinstr.strex"] = a[3] / a[0] * 1000
	}
}
