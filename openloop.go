package strex

import (
	"context"
	"fmt"
	"strings"

	"strex/internal/arrival"
	"strex/internal/core"
	"strex/internal/runcache"
	"strex/internal/runner"
	"strex/internal/sim"
	"strex/internal/stats"
)

// ArrivalSpec selects an open-loop arrival process for one tenant (see
// internal/arrival and docs/WORKLOADS.md). The zero value — or any
// non-positive Rate — is infinite offered load: every transaction
// arrives at cycle 0, which is exactly the closed-loop contract (the
// differential gate in the facade tests pins the equivalence).
type ArrivalSpec struct {
	// Process is the interarrival process: "fixed", "poisson",
	// "mmpp"/"bursty" or "diurnal" (empty selects poisson).
	Process string
	// Rate is the long-run mean offered load in transactions per
	// megacycle; <= 0 means infinite (all arrivals at cycle 0).
	Rate float64
	// Burst is the MMPP high/low rate ratio (0 = default 8).
	Burst float64
	// Period is the MMPP mean state dwell or the diurnal envelope
	// period, in megacycles (0 = defaults 50 / 200).
	Period float64
	// Amp is the diurnal envelope amplitude in [0, 0.95] (0 = 0.8).
	Amp float64
	// Seed selects the arrival stream. 0 derives a per-tenant seed
	// from the tenant's workload seed, so distinct tenants never share
	// an arrival stream by accident.
	Seed uint64
}

// spec resolves the facade spelling to the internal generator spec.
// tenant is the tenant's index, wseed its workload seed — the inputs
// of the default arrival-seed derivation.
func (a ArrivalSpec) spec(tenant int, wseed uint64) (arrival.Spec, error) {
	kind := arrival.Poisson
	if a.Process != "" {
		var err error
		if kind, err = arrival.ParseKind(a.Process); err != nil {
			return arrival.Spec{}, err
		}
	}
	seed := a.Seed
	if seed == 0 {
		seed = runner.DeriveSeed(wseed, tenant+1)
	}
	return arrival.Spec{
		Kind: kind, Rate: a.Rate, Burst: a.Burst,
		Period: a.Period, Amp: a.Amp, Seed: seed,
	}, nil
}

// TenantSpec is one workload sharing the machine in an open-loop run.
type TenantSpec struct {
	// Name labels the tenant in results (default: the workload name).
	Name string
	// Workload is the registry name (see Workloads).
	Workload string
	// Options parameterizes generation; Options.Txns is required.
	Options WorkloadOptions
	// Arrival is the tenant's arrival process.
	Arrival ArrivalSpec
}

// LatencyQuantiles summarizes a latency distribution in cycles: exact
// p50/p99/p999 order statistics (stats.Quantile) plus the mean.
type LatencyQuantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

func quantilesOf(xs []float64) LatencyQuantiles {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	q := LatencyQuantiles{
		P50:  stats.Quantile(xs, 0.50),
		P99:  stats.Quantile(xs, 0.99),
		P999: stats.Quantile(xs, 0.999),
	}
	if len(xs) > 0 {
		q.Mean = sum / float64(len(xs))
	}
	return q
}

// TenantResult carries one tenant's open-loop metrics.
type TenantResult struct {
	Name string
	Txns int
	// OfferedTPM is the tenant's offered load in txns/Mcycle (0 =
	// infinite rate).
	OfferedTPM float64
	// QueueWait summarizes arrival-to-first-dispatch cycles.
	QueueWait LatencyQuantiles
	// Sojourn summarizes arrival-to-completion cycles (queue wait plus
	// service — the latency an open-loop client observes).
	Sojourn LatencyQuantiles
}

// OpenLoopResult is the outcome of RunOpenLoop.
type OpenLoopResult struct {
	Scheduler string
	Cores     int
	Txns      int
	Cycles    uint64 // makespan
	// ThroughputTPM is completed transactions per megacycle of
	// makespan (the whole-run service rate).
	ThroughputTPM float64
	// Overall aggregates every tenant's transactions; Tenants holds
	// the per-tenant breakdown in TenantSpec order.
	Overall TenantResult
	Tenants []TenantResult

	executed bool // whether a simulation ran (false = cache hit)
}

// LatencyQuantile returns the q-quantile of a latency series in cycles
// — the shared exact-quantile rule (linear interpolation between order
// statistics; see internal/stats.Quantile) that the open-loop
// summaries, the experiment tables and the examples all use.
func LatencyQuantile(latencies []uint64, q float64) float64 {
	return stats.QuantileU64(latencies, q)
}

// buildMix materializes every tenant's workload and merges them into
// one open-loop scenario (see arrival.MergeTenants: multi-tenant sets
// get disjoint address spaces, so strata stay tenant-pure). Sets on
// cache's directory load through it, so its counters see the traffic.
func buildMix(tenants []TenantSpec, cache *runcache.Cache) (*arrival.Mix, []*Workload, error) {
	if len(tenants) == 0 {
		return nil, nil, fmt.Errorf("strex: RunOpenLoop needs at least one tenant")
	}
	ats := make([]arrival.Tenant, len(tenants))
	ws := make([]*Workload, len(tenants))
	for i, t := range tenants {
		w, err := BuildWorkload(t.Workload, t.Options)
		if err != nil {
			return nil, nil, fmt.Errorf("strex: tenant %d: %w", i, err)
		}
		set, err := w.load(cache)
		if err != nil {
			return nil, nil, fmt.Errorf("strex: tenant %d: %w", i, err)
		}
		spec, err := t.Arrival.spec(i, t.Options.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("strex: tenant %d: %w", i, err)
		}
		name := t.Name
		if name == "" {
			name = set.Name
		}
		ats[i] = arrival.Tenant{Name: name, Set: set, Spec: spec}
		ws[i] = w
	}
	mix, err := arrival.MergeTenants(ats)
	if err != nil {
		return nil, nil, err
	}
	return mix, ws, nil
}

// openLoopKey content-addresses an open-loop run: the simulator
// config, the scheduler identity extended with every tenant's arrival
// descriptor, and the concatenated per-tenant set identities. "" when
// the cache is disabled or any tenant lacks provenance.
func openLoopKey(cache *runcache.Cache, cfg sim.Config, schedID string, tenants []TenantSpec, ws []*Workload) string {
	if !cache.Enabled() {
		return ""
	}
	setIDs := make([]string, len(ws))
	arrIDs := make([]string, len(ws))
	for i, w := range ws {
		if w.prov.Workload == "" {
			return ""
		}
		setIDs[i] = w.setKey().Hash()
		spec, err := tenants[i].Arrival.spec(i, tenants[i].Options.Seed)
		if err != nil {
			return ""
		}
		arrIDs[i] = spec.ID()
	}
	return runcache.RunKey{
		Config: cfg,
		Sched:  schedID + "|openloop:" + strings.Join(arrIDs, ","),
		SetID:  strings.Join(setIDs, "+"),
	}.Hash()
}

// openLoopResult projects an engine result plus the mix's tenant
// attribution into the per-tenant latency summaries.
func openLoopResult(mix *arrival.Mix, tenants []TenantSpec, schedName string, cores int, res sim.Result) *OpenLoopResult {
	n := len(mix.Set.Txns)
	out := &OpenLoopResult{
		Scheduler: schedName,
		Cores:     cores,
		Txns:      n,
		Cycles:    res.Stats.Cycles,
		Tenants:   make([]TenantResult, len(mix.Names)),
	}
	out.ThroughputTPM = res.Stats.Throughput(n)
	perWait := make([][]float64, len(mix.Names))
	perSoj := make([][]float64, len(mix.Names))
	allWait := make([]float64, 0, n)
	allSoj := make([]float64, 0, n)
	for i, th := range res.Threads {
		tn := mix.Tenant[i]
		wait := float64(th.StartCycle - th.EnqueueCycle)
		soj := float64(th.FinishCycle - th.EnqueueCycle)
		perWait[tn] = append(perWait[tn], wait)
		perSoj[tn] = append(perSoj[tn], soj)
		allWait = append(allWait, wait)
		allSoj = append(allSoj, soj)
	}
	var offered float64
	for i, name := range mix.Names {
		tr := TenantResult{
			Name:      name,
			Txns:      len(perSoj[i]),
			QueueWait: quantilesOf(perWait[i]),
			Sojourn:   quantilesOf(perSoj[i]),
		}
		if i < len(tenants) && tenants[i].Arrival.Rate > 0 {
			tr.OfferedTPM = tenants[i].Arrival.Rate
			offered += tr.OfferedTPM
		}
		out.Tenants[i] = tr
	}
	out.Overall = TenantResult{
		Name:       "all",
		Txns:       n,
		OfferedTPM: offered,
		QueueWait:  quantilesOf(allWait),
		Sojourn:    quantilesOf(allSoj),
	}
	return out
}

// RunOpenLoop executes an open-loop, optionally multi-tenant run:
// each tenant's transactions arrive at the clocks its arrival process
// generates (instead of all at cycle 0), idle cores wait for the next
// arrival, and the result carries per-tenant queue-wait and sojourn
// p50/p99/p999 summaries next to the machine's throughput. The run is
// seed-deterministic: same tenants, same seeds, same result, byte for
// byte. An infinite-rate single tenant reproduces the closed-loop Run
// bit-for-bit (differentially gated in the tests).
func RunOpenLoop(cfg Config, tenants []TenantSpec, kind SchedulerKind) (*OpenLoopResult, error) {
	return runOpenLoop(context.Background(), runner.New(1), nil, cfg, tenants, kind)
}

// RunOpenLoopCtx is RunOpenLoop on the pool's shared executor and
// cache: the run is content-addressed (config + scheduler + per-tenant
// set and arrival identities), so an identical later call replays the
// cached record — stamps included, the latency summaries are
// recomputed bit-identically — and ctx cancels a cold run at the
// engine's next poll boundary. executed reports whether a simulation
// actually ran (false = served from the cache).
func (p *Pool) RunOpenLoopCtx(ctx context.Context, cfg Config, tenants []TenantSpec, kind SchedulerKind) (res *OpenLoopResult, executed bool, err error) {
	return poolOpenLoop(ctx, p, cfg, tenants, kind)
}

func poolOpenLoop(ctx context.Context, p *Pool, cfg Config, tenants []TenantSpec, kind SchedulerKind) (*OpenLoopResult, bool, error) {
	res, err := runOpenLoop(ctx, p.x, p.cache, cfg, tenants, kind)
	if err != nil {
		return nil, false, err
	}
	return res, res.executed, nil
}

// executed is carried unexported so the pool variant can report cache
// absorption without widening the result type.
func (r *OpenLoopResult) setExecuted(x bool) { r.executed = x }

func runOpenLoop(ctx context.Context, x *runner.Executor, cache *runcache.Cache, cfg Config, tenants []TenantSpec, kind SchedulerKind) (*OpenLoopResult, error) {
	mix, ws, err := buildMix(tenants, cache)
	if err != nil {
		return nil, err
	}
	simCfg, err := cfg.build()
	if err != nil {
		return nil, err
	}
	// The hybrid profiles the merged mix, which is the set it replays.
	ch, err := cfg.choose(kind, func() (*core.FPTable, error) {
		return core.MeasureFPTable(mix.Set, core.HybridSamples), nil
	})
	if err != nil {
		return nil, err
	}
	spec := runner.Spec{
		Label:    ch.label,
		Config:   simCfg,
		Set:      mix.Set,
		Sched:    ch.mk,
		Ctx:      ctx,
		Arrivals: mix.Clocks,
		CacheKey: openLoopKey(cache, simCfg, ch.id, tenants, ws),
	}
	fut := x.Submit(spec)
	res, err := fut.Wait()
	if err != nil {
		return nil, err
	}
	out := openLoopResult(mix, tenants, ch.label, simCfg.Cores, res)
	out.setExecuted(fut.Executed())
	return out, nil
}
