// Package shard implements horizontally sharded experiment execution:
// a coordinator that partitions a grid of simulation runs by cache key,
// streams them to worker processes over a minimal HTTP RPC, work-steals
// stragglers, and tolerates worker death by resubmitting the lost keys.
//
// The design leans entirely on the determinism contract (internal/
// runner): a run is a pure function of (sim.Config, workload set,
// scheduler identity), and a set is a pure function of its generation
// inputs. A WireSpec therefore carries only those inputs — no trace
// bytes, no scheduler state — and any worker can reproduce the exact
// run from it. Retries, speculation and worker-death resubmission are
// free: every re-execution of a key yields byte-identical results, so
// the merged report cannot depend on which worker ran what.
//
// The wire format (this file) is deliberately tiny:
//
//	SetRef    the generation inputs of a workload set (≈ runcache.SetKey)
//	WireSpec  one run: full sim.Config + scheduler identity + SetRef
//	RunReply  the runcache.Record of the result + execution provenance
//
// The coordinator (coord.go) implements runner.RemoteRunner, so the
// existing Executor fans runs out to workers behind its unchanged
// Submit/Future interface; when every worker is gone it reports
// runner.ErrRemoteUnavailable and the executor falls back to local
// execution. See docs/SHARDING.md for topology, failure model and merge
// semantics.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"

	"strex/internal/bench"
	"strex/internal/core"
	"strex/internal/runcache"
	"strex/internal/sched"
	"strex/internal/sim"
	"strex/internal/synth"
	"strex/internal/workload"
)

// SetRef names a workload set by its generation inputs — everything a
// worker needs to regenerate (or cache-load) the exact set the
// coordinator holds. It mirrors runcache.SetKey, with the synth
// parameters carried structurally (the key's Extra string is derived
// from them on both sides by the same canonicalization).
type SetRef struct {
	// Workload is the canonical registry name (aliases would fork the
	// key space and the cache).
	Workload string `json:"workload"`
	// Seed is the generation seed, used verbatim.
	Seed uint64 `json:"seed"`
	// Scale is the benchmark-specific size knob (0 = registry default).
	Scale int `json:"scale,omitempty"`
	// Txns is the generation input count (Generate/GenerateTyped's
	// argument — not necessarily len(set.Txns)).
	Txns int `json:"txns"`
	// TypeID is -1 for the mixed stream, a type index for typed sets.
	TypeID int `json:"type_id"`
	// Synth carries the synthetic generator's parameters when Workload
	// is the synth entry (nil otherwise).
	Synth *synth.Params `json:"synth,omitempty"`
	// Replicate, when > 1, derives the final set by replicating every
	// generated transaction Replicate times (the Figure 4 identical-
	// transaction transform, workload.ReplicateIdentical).
	Replicate int `json:"replicate,omitempty"`
}

// Key returns the content address of the *generated* (pre-derivation)
// set — exactly the runcache.SetKey the experiment suite and the facade
// compute, so coordinator and workers address one shared artifact.
func (r SetRef) Key() runcache.SetKey {
	key := runcache.SetKey{
		Workload: r.Workload,
		Seed:     r.Seed,
		Scale:    r.Scale,
		Txns:     r.Txns,
		TypeID:   r.TypeID,
	}
	if r.Synth != nil {
		key.Extra = fmt.Sprintf("%#v", *r.Synth)
	}
	return key
}

// SetID returns the content address of the final set, decorated for
// derived sets the way the experiment suite decorates them.
func (r SetRef) SetID() string {
	id := r.Key().Hash()
	if r.Replicate > 1 {
		id += fmt.Sprintf("+replicate%d", r.Replicate)
	}
	return id
}

// Materialize produces the set: run-cache lookup first (c may be nil),
// fresh generation otherwise, then the replication derivation if any.
// Generated sets are validated and stored back so a worker fleet
// sharing one cache directory generates each set once, fleet-wide.
func (r SetRef) Materialize(c *runcache.Cache) (*workload.Set, error) {
	if r.Workload == "" || r.Txns <= 0 {
		return nil, fmt.Errorf("shard: set ref needs a workload and a positive txns, got %+v", r)
	}
	info, ok := bench.Lookup(r.Workload)
	if !ok {
		return nil, fmt.Errorf("shard: unknown workload %q", r.Workload)
	}
	if info.Name != r.Workload {
		return nil, fmt.Errorf("shard: set ref must use the canonical workload name %q, got %q", info.Name, r.Workload)
	}
	key := r.Key()
	set, hit := c.GetSet(key)
	if !hit {
		opts := bench.Options{Seed: r.Seed, Scale: r.Scale}
		if r.Synth != nil {
			opts.Synth = *r.Synth
		}
		g, err := bench.Build(r.Workload, opts)
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		if r.TypeID >= 0 {
			set = g.GenerateTyped(r.TypeID, r.Txns)
		} else {
			set = g.Generate(r.Txns)
		}
		if err := set.Validate(); err != nil {
			return nil, fmt.Errorf("shard: generated set invalid: %w", err)
		}
		// Store failures degrade to "regenerate next time", the same
		// policy every other producer applies.
		_ = c.PutSet(key, set)
	}
	if r.Replicate > 1 {
		set = workload.ReplicateIdentical(set, r.Replicate)
	}
	return set, nil
}

// WireSpec is one simulation run on the wire: the full resolved
// simulator configuration, the serializable scheduler identity, and the
// workload's generation inputs. It is JSON-clean — every field of
// sim.Config is a plain value — and carries everything a worker needs
// to reproduce the run bit-for-bit.
type WireSpec struct {
	// Label tags the run for logs and progress (not part of identity).
	Label string `json:"label,omitempty"`
	// Config is the run's full sim.Config, Seed included.
	Config sim.Config `json:"config"`
	// SchedID is the identity of the scheduler that runs ("base",
	// "slicc", "strex/w30/t10"; see SchedulerFor). The hybrid never
	// appears here: callers resolve it to the mechanism it picks before
	// they submit the run.
	SchedID string `json:"sched_id"`
	// Set describes the workload.
	Set SetRef `json:"set"`
	// CacheKey, when non-empty, is the coordinator's run-cache address
	// for this run; workers with a cache attached store (and serve) the
	// result under it, which is what makes a shared cache directory the
	// fleet's coordination substrate.
	CacheKey string `json:"cache_key,omitempty"`
}

// PartitionKey returns the string the coordinator partitions on: the
// run-cache key when the run is cached, a digest of the run identity
// otherwise — either way a pure function of the run's content, so the
// partition is stable across processes and invocations.
func (ws *WireSpec) PartitionKey() string {
	if ws.CacheKey != "" {
		return ws.CacheKey
	}
	return runcache.RunKey{Config: ws.Config, Sched: ws.SchedID, SetID: ws.Set.SetID()}.Hash()
}

// Partition maps a partition key to a home shard in [0, n): the first 8
// bytes of a SHA-256 over the key, mod n. Stable, uniform, and
// independent of Go's randomized map iteration or string hash.
func Partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	sum := sha256.Sum256([]byte(key))
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(n))
}

// ParseSchedID validates a scheduler identity without constructing it
// (the coordinator-side eligibility check). It accepts exactly the
// identities the suite and the facade emit:
//
//	base | slicc | strex/w<W>/t<T>
func ParseSchedID(id string) error {
	_, err := SchedulerFor(id)
	return err
}

// SchedulerFor resolves a scheduler identity into a fresh-scheduler
// factory.
func SchedulerFor(id string) (func() sim.Scheduler, error) {
	switch {
	case id == "base":
		return func() sim.Scheduler { return sched.NewBaseline() }, nil
	case id == "slicc":
		return func() sim.Scheduler { return sched.NewSlicc() }, nil
	case strings.HasPrefix(id, "strex/"):
		// Only the canonical spelling is accepted: Sscanf alone would also
		// take "strex/w30/t10x" or "strex/w+30/t010" as strex/w30/t10.
		var w, t int
		if n, err := fmt.Sscanf(id, "strex/w%d/t%d", &w, &t); err != nil || n != 2 || w <= 0 || t <= 0 ||
			id != fmt.Sprintf("strex/w%d/t%d", w, t) {
			return nil, fmt.Errorf("shard: bad strex scheduler id %q (want strex/w<W>/t<T>)", id)
		}
		fc := core.FormationConfig{Window: w, TeamSize: t}
		return func() sim.Scheduler { return sched.NewStrexSized(fc) }, nil
	}
	return nil, fmt.Errorf("shard: unknown scheduler id %q", id)
}

// RunReply is a worker's answer to one run RPC: the serialized result
// plus execution provenance (for the coordinator's generation and cache
// accounting).
type RunReply struct {
	// Record is the run result in its cacheable form (the same bytes a
	// disk-cache hit would carry).
	Record runcache.Record `json:"record"`
	// Executed reports whether the worker actually simulated (false for
	// cache- and dedup-served replies).
	Executed bool `json:"executed"`
	// Cached reports a worker-side disk-cache hit.
	Cached bool `json:"cached,omitempty"`
	// Millis is the worker-observed wall time of serving the run.
	Millis int64 `json:"millis"`
}

// WorkerInfo is the handshake payload (GET /v1/workerz): the facts the
// coordinator sizes its dispatch by.
type WorkerInfo struct {
	// Parallel is the worker's concurrent-run bound (the coordinator
	// keeps at most this many RPCs in flight against it).
	Parallel int `json:"parallel"`
	// Runs counts run RPCs served since the worker started.
	Runs int64 `json:"runs"`
	// CacheDir is the worker's run-cache directory ("" = uncached).
	CacheDir string `json:"cache_dir,omitempty"`
}
