package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"strex"
	"strex/internal/arrival"
	"strex/internal/bench"
	"strex/internal/cache"
	"strex/internal/memsys"
)

// JobSpec is the wire shape of one submission: a workload selection
// plus a system configuration plus a scheduler — the same knobs
// strexsim's flags expose, which is what makes the daemon a drop-in
// service face for the existing CLI vocabulary. Zero values select the
// same defaults the CLIs use.
type JobSpec struct {
	// ClientID names the submitting tenant for admission fairness; it
	// participates in queueing, never in result identity. Empty falls
	// back to the X-Client-ID header, then "anon".
	ClientID string `json:"client_id,omitempty"`

	// Workload is a registry name or alias (strexsim -list). Required.
	Workload string `json:"workload"`
	// Txns is the transaction count (default 120, capped by the
	// server's MaxTxns admission limit).
	Txns int `json:"txns,omitempty"`
	// Seed seeds workload generation and simulator tie-breaking
	// (default 1; 0 aliases to the default, as in strex.Config).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the benchmark-specific size knob (0 = workload default).
	Scale int `json:"scale,omitempty"`
	// Synth generator knobs (ignored by fixed benchmarks).
	SynthUnits float64 `json:"synth_units,omitempty"`
	SynthTypes int     `json:"synth_types,omitempty"`
	SynthReuse float64 `json:"synth_reuse,omitempty"`
	// Seeds is the replicate count (default 1, capped by MaxSeeds);
	// N > 1 returns mean ±95% CI aggregates like strexsim -seeds.
	Seeds int `json:"seeds,omitempty"`

	// Arrival selects an open-loop arrival process (fixed, poisson,
	// mmpp/bursty, diurnal — strexsim -arrival). Empty means closed
	// loop: every transaction eligible at cycle 0, the schema every
	// pre-open-loop client speaks. Setting Rate or Tenants without
	// Arrival defaults the process to poisson.
	Arrival string `json:"arrival,omitempty"`
	// Rate is the offered load per tenant in txns/Mcycle (<= 0 =
	// infinite rate, which reproduces the closed-loop run bit-for-bit).
	Rate float64 `json:"rate,omitempty"`
	// Tenants lists additional workloads sharing the machine in an
	// open-loop run, comma-separated registry names.
	Tenants string `json:"tenants,omitempty"`

	// Timeline, when true, records a quantum-level run timeline of
	// replicate 0's engine, retrievable as Chrome trace-event JSON from
	// GET /v1/jobs/{id}/timeline once the job is done. A traced job is
	// never served from the result memo or the disk cache (the trace is
	// a record of an actual execution), and it participates in Key — so
	// it never coalesces with an untraced twin.
	Timeline bool `json:"timeline,omitempty"`

	// Sched selects the scheduler: base, strex, slicc, hybrid
	// (default strex).
	Sched string `json:"sched,omitempty"`
	// System configuration (zero values = the paper's Table 2 defaults).
	Cores      int    `json:"cores,omitempty"`
	L1IKB      int    `json:"l1i_kb,omitempty"`
	L1DKB      int    `json:"l1d_kb,omitempty"`
	L1Ways     int    `json:"l1_ways,omitempty"`
	Policy     string `json:"policy,omitempty"`
	Prefetcher string `json:"prefetch,omitempty"`
	TeamSize   int    `json:"team,omitempty"`
	PoolWindow int    `json:"window,omitempty"`
}

// Limits bounds what a single job may ask of the shared machine — the
// per-request half of admission control (the queue depth is the
// aggregate half).
type Limits struct {
	MaxTxns  int // max transactions per replicate (default 4096)
	MaxSeeds int // max replicates per job (default 16)
	MaxCores int // max simulated cores (default 32, at most memsys.MaxCores)
}

func (l *Limits) fill() {
	if l.MaxTxns <= 0 {
		l.MaxTxns = 4096
	}
	if l.MaxSeeds <= 0 {
		l.MaxSeeds = 16
	}
	if l.MaxCores <= 0 {
		l.MaxCores = 32
	}
	l.MaxCores = min(l.MaxCores, memsys.MaxCores)
}

// normalize resolves aliases and applies defaults in place, then
// validates against the limits. After normalize, two specs that mean
// the same run are field-identical — the property Key depends on.
func (s *JobSpec) normalize(lim Limits) error {
	lim.fill()
	info, ok := bench.Lookup(s.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (see strexsim -list)", s.Workload)
	}
	s.Workload = info.Name
	if s.Txns == 0 {
		s.Txns = 120
	}
	if s.Txns < 1 || s.Txns > lim.MaxTxns {
		return fmt.Errorf("txns %d out of range [1, %d]", s.Txns, lim.MaxTxns)
	}
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.Seeds < 1 || s.Seeds > lim.MaxSeeds {
		return fmt.Errorf("seeds %d out of range [1, %d]", s.Seeds, lim.MaxSeeds)
	}
	if s.Sched == "" {
		s.Sched = "strex"
	}
	kind, err := strex.ParseScheduler(s.Sched)
	if err != nil {
		return err
	}
	s.Sched = canonicalSched(kind)
	if s.Cores == 0 {
		s.Cores = 4
	}
	if s.Cores < 1 || s.Cores > lim.MaxCores {
		return fmt.Errorf("cores %d out of range [1, %d]", s.Cores, lim.MaxCores)
	}
	if s.Scale < 0 || s.TeamSize < 0 || s.PoolWindow < 0 ||
		s.L1IKB < 0 || s.L1DKB < 0 || s.L1Ways < 0 {
		return fmt.Errorf("negative configuration value")
	}
	if s.Policy != "" {
		if _, err := cache.ParsePolicy(s.Policy); err != nil {
			return err
		}
	}
	switch s.Prefetcher {
	case "", "next-line", "pif":
	default:
		return fmt.Errorf("unknown prefetcher %q (next-line, pif)", s.Prefetcher)
	}
	if s.Arrival == "" && (s.Rate != 0 || s.Tenants != "") {
		s.Arrival = "poisson"
	}
	if s.Arrival != "" {
		kind, err := arrival.ParseKind(s.Arrival)
		if err != nil {
			return err
		}
		s.Arrival = kind.String()
		if s.Rate < 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
			return fmt.Errorf("rate %g out of range (want a finite rate >= 0 txns/Mcycle; 0 = infinite)", s.Rate)
		}
		if s.Seeds > 1 {
			return fmt.Errorf("open-loop jobs are single-draw (the arrival schedule is part of the scenario); use seeds 1")
		}
		if s.Timeline {
			return fmt.Errorf("open-loop jobs cannot record a timeline")
		}
		names := s.tenantList()
		if 1+len(names) > maxTenants {
			return fmt.Errorf("too many tenants: %d (max %d including the primary workload)", 1+len(names), maxTenants)
		}
		for i, name := range names {
			ti, ok := bench.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown tenant workload %q (see strexsim -list)", name)
			}
			names[i] = ti.Name
		}
		s.Tenants = strings.Join(names, ",")
	}
	return nil
}

// maxTenants bounds an open-loop mix's workload count (the per-tenant
// txns all multiply into one machine's thread table).
const maxTenants = 8

// openLoop reports whether the (normalized) spec requests an open-loop
// run.
func (s *JobSpec) openLoop() bool { return s.Arrival != "" }

// tenantList splits the Tenants field, dropping empties.
func (s *JobSpec) tenantList() []string {
	var out []string
	for _, t := range strings.Split(s.Tenants, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// tenantSpecs projects an open-loop spec into the facade's tenant
// list: the primary workload plus every Tenants entry, all sharing the
// generation options and the arrival process.
func (s *JobSpec) tenantSpecs(cacheDir string) []strex.TenantSpec {
	names := append([]string{s.Workload}, s.tenantList()...)
	out := make([]strex.TenantSpec, len(names))
	for i, name := range names {
		out[i] = strex.TenantSpec{
			Workload: name,
			Options:  s.workloadOptions(cacheDir),
			Arrival:  strex.ArrivalSpec{Process: s.Arrival, Rate: s.Rate},
		}
	}
	return out
}

func canonicalSched(kind strex.SchedulerKind) string {
	switch kind {
	case strex.SchedBaseline:
		return "base"
	case strex.SchedSTREX:
		return "strex"
	case strex.SchedSLICC:
		return "slicc"
	default:
		return "hybrid"
	}
}

// Key is the singleflight/coalescing identity: a stable digest over
// every normalized field that determines the run's content — and
// nothing else (ClientID deliberately excluded, so identical
// submissions from different tenants coalesce). Two jobs with equal
// keys produce byte-identical results, because a run is a pure function
// of its spec (the runner's determinism contract); the per-replicate
// runcache.RunKey addresses the same facts at disk-cache granularity.
func (s *JobSpec) Key() string {
	canon := fmt.Sprintf("wl=%s|txns=%d|seed=%d|scale=%d|synth=%g/%d/%g|seeds=%d|sched=%s|cores=%d|l1i=%d|l1d=%d|ways=%d|pol=%s|pf=%s|team=%d|win=%d|tl=%t",
		s.Workload, s.Txns, s.Seed, s.Scale,
		s.SynthUnits, s.SynthTypes, s.SynthReuse, s.Seeds,
		s.Sched, s.Cores, s.L1IKB, s.L1DKB, s.L1Ways,
		s.Policy, s.Prefetcher, s.TeamSize, s.PoolWindow, s.Timeline)
	if s.Arrival != "" || s.Rate != 0 || s.Tenants != "" {
		// Appended only for open-loop specs, so every closed-loop key —
		// including the pinned golden — is unchanged by the extension.
		canon += fmt.Sprintf("|arr=%s|rate=%g|ten=%s", s.Arrival, s.Rate, s.Tenants)
	}
	h := sha256.Sum256([]byte("job\x00" + canon))
	return hex.EncodeToString(h[:16])
}

// workloadOptions projects the spec into the facade's generation
// options; cacheDir wires the shared trace cache through.
func (s *JobSpec) workloadOptions(cacheDir string) strex.WorkloadOptions {
	return strex.WorkloadOptions{
		Txns:                s.Txns,
		Seed:                s.Seed,
		Scale:               s.Scale,
		SynthFootprintUnits: s.SynthUnits,
		SynthTypes:          s.SynthTypes,
		SynthDataReuse:      s.SynthReuse,
		CacheDir:            cacheDir,
	}
}

// config projects the spec into the facade's system configuration.
func (s *JobSpec) config() strex.Config {
	return strex.Config{
		Cores:      s.Cores,
		L1IKB:      s.L1IKB,
		L1DKB:      s.L1DKB,
		L1Ways:     s.L1Ways,
		Policy:     s.Policy,
		Prefetcher: s.Prefetcher,
		TeamSize:   s.TeamSize,
		PoolWindow: s.PoolWindow,
		Seed:       s.Seed,
	}
}

// kind returns the scheduler selection (spec is normalized, so this
// cannot fail).
func (s *JobSpec) kind() strex.SchedulerKind {
	k, err := strex.ParseScheduler(s.Sched)
	if err != nil {
		panic("service: unnormalized spec: " + err.Error())
	}
	return k
}
