package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"strex"
	"strex/internal/bench"
	"strex/internal/service"
)

// strexd-warm serves a fixed job script from strexd running in-process
// behind a loopback listener. Set-up runs the script cold into an empty
// cache; each timed pass restarts the daemon on a filled cache, with an
// empty memo, and replays it: every job is served from disk once and
// then from the memo. The engine does no timed work.
var strexdWarmSpec = workloadSpec{
	name:        "strexd-warm",
	why:         "strexd on loopback replaying a job script against a warm disk cache, then the memo, with coalescing bursts: service, runcache and tracefile; no engine runs",
	setupsFirst: strexdSetups,
	start:       startStrexdWarm,
}

// strexdSetups is how many cold set-ups a run makes; setup_s is their
// median, and the timed passes rotate over the caches they fill.
const strexdSetups = 3

// jobClass is one kind of job in the script. The classes are sized to
// cost about the same when served warm (about 20 ms on a 2-vCPU host),
// so the warm-latency percentiles fall inside one blended class rather
// than on a gap between classes. TPC-C is left out: its transaction
// types differ so much in length that a job small enough for this
// script varies 2x in warm cost from seed to seed.
type jobClass struct {
	workload string
	txns     int
}

var strexdClasses = []jobClass{
	{"TPC-E", 12},
	{"MapReduce", 3},
	{"TATP", 50},
	{"SmallBank", 160},
}

const (
	strexdSeedsPerClass = 15 // distinct seeds per class; each runs under base and strex
	strexdBurstEvery    = 10 // every tenth spec is submitted as a burst of two
	strexdCores         = 2
	pollInterval        = time.Millisecond
)

// jobSpec is the subset of strexd's job body the script uses.
type jobSpec struct {
	ClientID string `json:"client_id"`
	Workload string `json:"workload"`
	Txns     int    `json:"txns"`
	Seed     uint64 `json:"seed"`
	Sched    string `json:"sched"`
	Cores    int    `json:"cores"`
}

func (s jobSpec) key() string {
	return fmt.Sprintf("%s/t%d/s%d/%s", s.Workload, s.Txns, s.Seed, s.Sched)
}

// strexdScript builds the job script for a benchmark seed: every class
// at strexdSeedsPerClass derived seeds, each under Base and STREX.
func strexdScript(seed uint64) []jobSpec {
	var out []jobSpec
	for i := 0; i < strexdSeedsPerClass; i++ {
		for ci, c := range strexdClasses {
			s := strex.DeriveSeed(seed, i*len(strexdClasses)+ci)
			for _, sched := range []string{"base", "strex"} {
				out = append(out, jobSpec{ClientID: "perfbench", Workload: c.workload, Txns: c.txns, Seed: s, Sched: sched, Cores: strexdCores})
			}
		}
	}
	return out
}

type strexdWarm struct {
	cfg       runConfig
	script    []jobSpec
	caches    []string
	cold      map[string][]byte // reference payload per spec key
	instrs    map[string]uint64 // simulated instructions per spec key
	setupJobs int
	passes    []strexdPass
}

type strexdPass struct {
	traced     bool
	warmMs     []float64 // warm latency per non-burst spec, in script order
	delivered  uint64    // simulated instructions the pass's answers cover
	hotMs      []float64
	submitMs   []float64
	polls      int
	jobs       int
	metrics    service.Metrics
	runSec     float64 // strexd_run_seconds_sum: server time in facade calls
	compile    compileDelta
	timedGens  int64
	mismatches int
}

func startStrexdWarm(cfg runConfig) (workloadRun, error) {
	return &strexdWarm{cfg: cfg, script: strexdScript(cfg.seed), cold: map[string][]byte{}, instrs: map[string]uint64{}}, nil
}

func (sw *strexdWarm) close() {}

// daemon is one strexd instance behind a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func bootDaemon(cacheDir string) (*daemon, error) {
	srv, err := service.New(service.Config{Parallel: 1, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	latency time.Duration // POST sent to result received
	submit  time.Duration // POST round trip
	polls   int           // GETs of the result
	env     envelope
}

type envelope struct {
	Generations int             `json:"generations"`
	RunMillis   int64           `json:"run_millis"`
	Result      json.RawMessage `json:"result"`
}

// runJob submits one job and polls its result until it is done.
func (d *daemon) runJob(spec jobSpec) (jobOutcome, error) {
	var o jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		return o, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return o, err
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	o.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return o, fmt.Errorf("submit %s: status %d, %v", spec.key(), resp.StatusCode, err)
	}
	for {
		if st.State != service.StateDone && o.polls > 0 {
			time.Sleep(pollInterval)
		}
		o.polls++
		r, err := d.client.Get(d.url + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			return o, err
		}
		data, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return o, err
		}
		switch r.StatusCode {
		case http.StatusOK:
			o.latency = time.Since(t0)
			if err := json.Unmarshal(data, &o.env); err != nil {
				return o, fmt.Errorf("result %s: %w", spec.key(), err)
			}
			return o, nil
		case http.StatusAccepted:
		default:
			return o, fmt.Errorf("result %s: status %d: %s", spec.key(), r.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

// jobSpan records a job as a service span, with the server-side run
// (the daemon's facade calls: trace load, result lookup, any engine
// run) as a strex child ending when the job's result arrived.
func jobSpan(tr *Tracer, parent int, name, key string, start time.Time, o jobOutcome) {
	if tr == nil {
		return
	}
	end := tr.At(start.Add(o.latency))
	id := tr.Add(parent, "service", name, key, tr.At(start), end)
	if o.env.RunMillis > 0 {
		tr.Add(id, "strex", "run", key, end-time.Duration(o.env.RunMillis)*time.Millisecond, end)
	}
}

func (sw *strexdWarm) setup(tr *Tracer, parent int, cal *calibrator) error {
	dir := filepath.Join(sw.cfg.workDir, fmt.Sprintf("cache-%d", len(sw.caches)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	bootID := tr.Begin(parent, "service", "boot", "")
	d, err := bootDaemon(dir)
	tr.End(bootID)
	if err != nil {
		return err
	}
	for _, spec := range sw.script {
		start := time.Now()
		o, err := d.runJob(spec)
		if err != nil {
			_ = d.stop()
			return err
		}
		jobSpan(tr, parent, "cold", spec.key(), start, o)
		cal.after(time.Since(start))
		sw.setupJobs++
		if ref, ok := sw.cold[spec.key()]; ok && !bytes.Equal(ref, o.env.Result) {
			_ = d.stop()
			return fmt.Errorf("cold payload of %s differs between set-ups", spec.key())
		}
		sw.cold[spec.key()] = o.env.Result
		var res service.JobResult
		if err := json.Unmarshal(o.env.Result, &res); err != nil {
			_ = d.stop()
			return fmt.Errorf("payload of %s: %w", spec.key(), err)
		}
		var n uint64
		for _, r := range res.Reps {
			n += r.Instrs
		}
		sw.instrs[spec.key()] = n
	}
	if err := d.stop(); err != nil {
		return err
	}
	sw.caches = append(sw.caches, dir)
	return nil
}

func (sw *strexdWarm) pass(tr *Tracer, parent int, cal *calibrator) error {
	p := strexdPass{traced: tr != nil}
	g0 := bench.Generations()
	c0 := readCompile()
	bootID := tr.Begin(parent, "service", "boot", "")
	d, err := bootDaemon(sw.caches[len(sw.passes)%len(sw.caches)])
	tr.End(bootID)
	if err != nil {
		return err
	}
	check := func(spec jobSpec, o jobOutcome) {
		p.jobs++
		p.delivered += sw.instrs[spec.key()]
		p.polls += o.polls
		p.submitMs = append(p.submitMs, float64(o.submit.Nanoseconds())/1e6)
		if !bytes.Equal(o.env.Result, sw.cold[spec.key()]) || o.env.Generations != 0 {
			p.mismatches++
		}
	}
	err = func() error {
		for i, spec := range sw.script {
			start := time.Now()
			if i%strexdBurstEvery == strexdBurstEvery-1 {
				if err := sw.burst(d, tr, parent, spec, check); err != nil {
					return err
				}
				cal.after(time.Since(start))
				continue
			}
			o, err := d.runJob(spec)
			if err != nil {
				return err
			}
			jobSpan(tr, parent, "warm", spec.key(), start, o)
			cal.after(time.Since(start))
			check(spec, o)
			p.warmMs = append(p.warmMs, float64(o.latency.Nanoseconds())/1e6)
		}
		for _, spec := range sw.script {
			start := time.Now()
			o, err := d.runJob(spec)
			if err != nil {
				return err
			}
			jobSpan(tr, parent, "hot", spec.key(), start, o)
			cal.after(time.Since(start))
			check(spec, o)
			p.hotMs = append(p.hotMs, float64(o.latency.Nanoseconds())/1e6)
		}
		var err error
		if p.metrics, err = d.metrics(); err != nil {
			return err
		}
		prom, err := d.prometheus()
		if err != nil {
			return err
		}
		p.runSec, err = promValue(prom, "strexd_run_seconds_sum")
		return err
	}()
	stopID := tr.Begin(parent, "service", "stop", "")
	if serr := d.stop(); err == nil {
		err = serr
	}
	tr.End(stopID)
	if err != nil {
		return err
	}
	p.compile = readCompile().sub(c0)
	p.timedGens = bench.Generations() - g0
	sw.passes = append(sw.passes, p)
	return nil
}

// burst submits two identical jobs at once, on the client's two
// connections, so the second coalesces onto the first's flight.
func (sw *strexdWarm) burst(d *daemon, tr *Tracer, parent int, spec jobSpec, check func(jobSpec, jobOutcome)) error {
	id := tr.Begin(parent, "service", "burst", spec.key())
	defer tr.End(id)
	var wg sync.WaitGroup
	outs := make([]jobOutcome, 2)
	errs := make([]error, 2)
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = d.runJob(spec)
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			return errs[i]
		}
		check(spec, outs[i])
	}
	return nil
}

func (d *daemon) metrics() (service.Metrics, error) {
	var m service.Metrics
	r, err := d.client.Get(d.url + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/v1/metrics: status %d", r.StatusCode)
	}
	return m, json.NewDecoder(r.Body).Decode(&m)
}

func (d *daemon) prometheus() ([]byte, error) {
	r, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.StatusCode)
	}
	return io.ReadAll(r.Body)
}

// promValue returns the value of an unlabelled sample in a Prometheus
// text exposition.
func promValue(text []byte, name string) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

func (sw *strexdWarm) finish(out *outcome, t *timings) {
	var warmPerPass [][]float64 // warm latency of each non-burst spec, per untraced pass
	for i, p := range sw.passes {
		out.attempted += p.jobs
		if p.mismatches > 0 {
			out.failed += p.mismatches
			out.problems = append(out.problems, fmt.Sprintf("pass %d: %d payloads differ from the cold payload or report generations", i, p.mismatches))
		}
		if p.timedGens != 0 || p.metrics.Counters.Generations != 0 {
			out.fail("pass %d: timed phase generated %d sets and ran %d engine replicates, want 0", i, p.timedGens, p.metrics.Counters.Generations)
		}
		if c := p.metrics.Counters; c.Failed+c.Canceled+c.Rejected > 0 {
			out.fail("pass %d: daemon reports %d failed, %d canceled, %d rejected jobs", i, c.Failed, c.Canceled, c.Rejected)
		}
		if !p.traced {
			f := t.factor[len(warmPerPass)]
			ms := make([]float64, len(p.warmMs))
			for j, x := range p.warmMs {
				ms[j] = x * f
			}
			warmPerPass = append(warmPerPass, ms)
		}
	}
	out.attempted += sw.setupJobs
	// Each warm job's latency is its median over the passes, in reference
	// ms; the percentiles are taken over the script's warm jobs.
	warm, err := unitMedians(warmPerPass)
	if err != nil {
		out.fail("warm jobs: %v", err)
		return
	}
	var payloads []json.RawMessage
	for _, spec := range sw.script {
		payloads = append(payloads, sw.cold[spec.key()])
	}
	digest, err := digestOf(payloads)
	if err != nil {
		out.fail("%v", err)
	}
	checkDigest(out, sw.cfg, strexdWarmSpec.name, digest)

	// Every pass delivers the same answers.
	out.e2e["sim_minstr_per_s"] = float64(sw.passes[0].delivered) / median(t.wall) / 1e6
	out.samples["sim_minstr_per_s"] = len(warmPerPass)
	setWarmJobs(out, warm, len(warmPerPass), !sw.cfg.trace)

	results := map[string]service.JobResult{}
	for _, spec := range sw.script {
		var r service.JobResult
		if err := json.Unmarshal(sw.cold[spec.key()], &r); err != nil || len(r.Reps) != 1 {
			out.fail("payload of %s: %v (%d replicates)", spec.key(), err, len(r.Reps))
			return
		}
		results[spec.key()] = r
	}
	var baseBusy, strexBusy, baseI, strexI []float64
	for _, spec := range sw.script {
		if spec.Sched != "base" {
			continue
		}
		twin := spec
		twin.Sched = "strex"
		b, s := results[spec.key()].Reps[0], results[twin.key()].Reps[0]
		baseBusy = append(baseBusy, float64(b.BusyCycles))
		strexBusy = append(strexBusy, float64(s.BusyCycles))
		baseI = append(baseI, b.IMPKI)
		strexI = append(strexI, s.IMPKI)
	}
	setRatios(out, baseBusy, strexBusy, baseI, strexI)

	if sw.cfg.trace {
		sw.fillLayer(out, results)
	}
}

func (sw *strexdWarm) fillLayer(out *outcome, results map[string]service.JobResult) {
	var traced []strexdPass
	var submit, hot []float64
	for _, p := range sw.passes {
		if p.traced {
			traced = append(traced, p)
			submit = append(submit, p.submitMs...)
			hot = append(hot, p.hotMs...)
		}
	}
	med := func(f func(p strexdPass) float64) float64 { return medianOf(traced, f) }
	first := traced[0]
	c := first.metrics.Cache
	out.layer["service.submit_ms_p50"] = percentileOf(submit, 50).Value
	out.layer["service.hot_ms_p50"] = percentileOf(hot, 50).Value
	out.layer["service.queue_wait_ms_p50"] = med(func(p strexdPass) float64 { return p.metrics.Latency.QueueWait.P50 })
	out.layer["service.run_ms_p50"] = med(func(p strexdPass) float64 { return p.metrics.Latency.Run.P50 })
	out.layer["service.memo_hits"] = float64(first.metrics.Counters.MemoHits)
	out.layer["service.coalesced"] = float64(first.metrics.Counters.Coalesced)
	out.layer["service.rejected"] = float64(first.metrics.Counters.Rejected)
	out.layer["service.polls_per_job"] = med(func(p strexdPass) float64 { return float64(p.polls) / float64(p.jobs) })
	out.layer["runcache.trace_hits"] = float64(c.TraceHits)
	out.layer["runcache.result_hits"] = float64(c.ResultHits)
	out.layer["runcache.misses"] = float64(c.TraceMisses + c.ResultMisses)
	if all := c.TraceHits + c.ResultHits + c.TraceMisses + c.ResultMisses; all > 0 {
		out.layer["runcache.hit_ratio"] = float64(c.TraceHits+c.ResultHits) / float64(all)
	}
	out.layer["runcache.read_mb"] = float64(c.BytesRead) / 1e6
	out.layer["runcache.written_mb"] = float64(c.BytesWritten) / 1e6
	out.layer["strex.overhead_s"] = med(func(p strexdPass) float64 { return p.runSec })
	out.layer["trace.compile_s"] = med(func(p strexdPass) float64 { return float64(p.compile.nanos) / 1e9 })
	out.layer["trace.segments"] = float64(first.compile.segs)

	// The bench layer runs inside the daemon during set-up; time the
	// same generations here with the same public call.
	var gen time.Duration
	var sets, entries int
	for _, spec := range sw.script {
		if spec.Sched != "base" {
			continue // base and strex share one trace
		}
		t0 := time.Now()
		set, err := bench.BuildSet(spec.Workload, spec.Txns, bench.Options{Seed: spec.Seed})
		gen += time.Since(t0)
		if err != nil {
			out.fail("build %s: %v", spec.key(), err)
			return
		}
		sets++
		entries += setEntries(set)
	}
	out.layer["bench.gen_s"] = gen.Seconds()
	out.layer["bench.sets"] = float64(sets)
	out.layer["bench.mentries_per_s"] = float64(entries) / gen.Seconds() / 1e6

	rates := schedRates{}
	for _, spec := range sw.script {
		r := results[spec.key()].Reps[0]
		rates.add(spec.Sched, r.Instrs, r.IMPKI, r.DMPKI, r.Switches)
	}
	rates.fill(out)
}
