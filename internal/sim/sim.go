// Package sim is the chip-multiprocessor simulator that replays workload
// traces (the Zesto substitute; see docs/MODEL.md for the substitution
// argument). Each core executes its current thread's trace entries at
// one instruction per cycle, charging additional latency for L1 misses
// serviced by the shared NUCA L2 / memory, coherence invalidations,
// context switches and migrations. A pluggable Scheduler decides which
// transaction runs where and reacts to cache events — Baseline, STREX,
// SLICC and the hybrid all plug in here.
//
// The execution core is event-driven (docs/ENGINE.md): cores are
// selected from a min-heap keyed on (clock, core ID), schedulers
// declare the event categories they observe through HookMask so the
// engine skips the hooks they ignore, and runs of consecutive L1-I hit
// instruction entries replay in a tight loop that touches neither the
// scheduler nor the memory system. A retained naive selector
// (RunReference) provides the differential-testing oracle.
//
// The simulator is single-goroutine and fully deterministic.
package sim

import (
	"fmt"

	"strex/internal/cache"
	"strex/internal/codegen"
	"strex/internal/memsys"
	"strex/internal/obs"
	"strex/internal/prefetch"
	"strex/internal/trace"
	"strex/internal/workload"
)

// Config describes a simulated system (paper Table 2 defaults).
type Config struct {
	Cores      int
	L1IKB      int
	L1DKB      int
	L1Ways     int
	IPolicy    cache.PolicyKind // L1-I replacement policy (Figure 9)
	Prefetcher prefetch.Kind
	Mem        memsys.Config
	PoolWindow int // transactions visible to schedulers at once (paper: 30)
	Seed       uint64
}

// DefaultConfig returns the paper's system for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:      n,
		L1IKB:      32,
		L1DKB:      32,
		L1Ways:     8,
		IPolicy:    cache.LRU,
		Prefetcher: prefetch.None,
		Mem:        memsys.DefaultConfig(n),
		PoolWindow: 30,
		Seed:       1,
	}
}

// Thread is a transaction in flight: its trace cursor is the entire
// architectural state a context switch or migration must preserve.
type Thread struct {
	Txn     *workload.Txn
	Cursor  trace.Cursor
	ReadyAt uint64 // earliest cycle the thread may run (set by switches)

	EnqueueCycle uint64
	StartCycle   uint64
	FinishCycle  uint64
	started      bool

	Instrs uint64 // instructions retired so far

	// Scratch is scheduler-private per-thread state (SLICC keeps its
	// missed-tag queue here).
	Scratch interface{}
}

// Latency returns queue-entry-to-completion cycles (Figure 7's metric).
func (t *Thread) Latency() uint64 { return t.FinishCycle - t.EnqueueCycle }

// Core is one processor: private L1s (via the embedded Stepper, which
// also serves the SMT model) plus its clock.
type Core struct {
	Stepper // L1I, L1D and the shared entry-execution rules

	ID    int
	Clock uint64
	Cur   *Thread

	// QInstrs counts instructions retired by the current thread since it
	// was last installed (a scheduling quantum). STREX's minimum-progress
	// rule (Section 4.4.1/4.4.2) consults it.
	QInstrs uint64

	Switches   uint64 // context switches performed on this core
	Migrations uint64 // threads migrated away from this core

	// phase/tagged cache Scheduler.Phase for the current quantum (the
	// Phase contract: a core's phase only changes between quanta).
	phase  uint8
	tagged bool

	// qStart stamps the cycle the current quantum began (set by install;
	// read only when a timeline tracer is attached).
	qStart uint64
}

// Event describes the outcome of one executed trace entry; schedulers
// receive it after every entry in the categories their HookMask claims.
type Event struct {
	Entry trace.Entry
	IMiss bool // an instruction entry that missed in the L1-I
}

// Action is the scheduler's reaction to an Event.
type Action int

const (
	// Continue keeps the current thread running.
	Continue Action = iota
	// Yield context-switches the current thread out (cost: SwitchCost);
	// the scheduler receives it back via OnYield.
	Yield
	// Migrate moves the current thread to another core (cost:
	// MigrateCost); the scheduler receives it via OnMigrate.
	Migrate
)

// HookMask declares which execution events a scheduler observes. The
// engine consults it once per run and never invokes a hook the mask
// omits, so inert hooks cost nothing on the hot path. A scheduler whose
// mask clears HookIHit additionally certifies that instruction hits
// have no scheduler-visible effect, which licenses the engine's
// hit-run fast path (docs/ENGINE.md).
type HookMask uint8

const (
	// HookIHit delivers OnEvent for instruction entries that hit in the
	// L1-I. Declaring it disables the hit-run fast path.
	HookIHit HookMask = 1 << iota
	// HookIMiss delivers OnEvent for instruction entries that missed
	// (the events with IMiss set).
	HookIMiss
	// HookData delivers OnEvent for load and store entries.
	HookData
	// HookWouldEvict enables the pre-fill OnWouldEvict consultation on
	// cores where Phase reports tagging (STREX's victim monitor).
	HookWouldEvict
	// HookIHitBatch declares that the scheduler observes instruction
	// hits, but only through state updates that commute within a run of
	// consecutive hits (SLICC's shift-vector aging). The engine then
	// keeps the hit-run fast path: while HitRunOK(core) holds it
	// collapses a run into one OnHitRun call; otherwise it delivers
	// per-entry OnEvent exactly like HookIHit.
	HookIHitBatch
	// HookRemoteCaches declares that the scheduler reads other cores'
	// cache contents (SLICC's signature queries). The engine must then
	// keep every cache-content mutation in global clock order, which
	// forbids hit runs under an active prefetcher (prefetch fills would
	// run ahead of order and be visible to remote probes).
	HookRemoteCaches
)

// Scheduler decides placement and reacts to execution events. Exactly
// one scheduler drives an Engine.
type Scheduler interface {
	Name() string
	// Bind attaches the scheduler to the engine before the run.
	Bind(e *Engine)
	// Hooks declares which events the scheduler observes. The engine
	// skips every hook the mask omits, so the mask must be honest: a
	// cleared bit promises the corresponding hook is inert.
	Hooks() HookMask
	// Dispatch returns the next thread for an idle core, or nil.
	Dispatch(core int) *Thread
	// Phase returns the phaseID to tag instruction blocks with, and
	// whether tagging is enabled on this core (STREX only). The engine
	// samples Phase when a thread is installed; a scheduler must only
	// change a core's phase between quanta (i.e. from Dispatch or the
	// yield/migrate/complete hooks), never mid-quantum.
	Phase(core int) (uint8, bool)
	// OnWouldEvict is consulted before an instruction fill that would
	// displace a resident block, but only on cores where Phase reports
	// tagging and when HookWouldEvict is declared. Returning true
	// context-switches the running thread *without performing the
	// fill* — the paper's rule that a transaction executes "as long as
	// it does not evict cache blocks tagged with the current phaseID".
	// The suppressed fetch re-executes when the thread resumes.
	OnWouldEvict(core int, victimPhase uint8) bool
	// OnEvent is invoked after every executed entry in the categories
	// the HookMask declares; the returned Action directs the engine.
	// target is only meaningful for Migrate.
	OnEvent(core int, ev Event) (act Action, target int)
	// HitRunOK reports whether, in the scheduler's current state for
	// core, a run of instruction-hit events is batchable: every such
	// event would return Continue and mutate only state whose updates
	// over the run can be applied at once by OnHitRun. Consulted only
	// when HookIHitBatch is declared, before each hit run.
	HitRunOK(core int) bool
	// OnHitRun replaces the per-entry OnEvent calls for a batched run
	// of instruction hits: entries hit entries retiring instrs
	// instructions executed on core. Must leave the scheduler in
	// exactly the state the per-entry delivery would have. Consulted
	// only when HookIHitBatch is declared.
	OnHitRun(core int, entries int, instrs uint64)
	// OnYield receives a context-switched thread.
	OnYield(core int, t *Thread)
	// OnMigrate receives a migrating thread at its destination.
	OnMigrate(from, to int, t *Thread)
	// OnComplete is told when a thread finishes.
	OnComplete(core int, t *Thread)
}

// Stats aggregates a run's results.
type Stats struct {
	Cycles uint64 // makespan: max core clock at completion
	// BusyCycles sums, across cores, the cycles spent executing
	// (instruction retirement, miss stalls, switch and migration costs).
	// Idle waiting is excluded, so BusyCycles/Cores is the steady-state
	// makespan a continuous transaction supply would achieve — the
	// paper's throughput conditions, free of finite-batch drain tails.
	BusyCycles    uint64
	Instrs        uint64
	IMisses       uint64
	IAccesses     uint64
	DMisses       uint64
	DAccesses     uint64
	Switches      uint64
	Migrations    uint64
	L2Misses      uint64
	Invalidations uint64
}

// IMPKI returns L1-I misses per kilo-instruction.
func (s Stats) IMPKI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.IMisses) / float64(s.Instrs) * 1000
}

// DMPKI returns L1-D misses per kilo-instruction.
func (s Stats) DMPKI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.DMisses) / float64(s.Instrs) * 1000
}

// Throughput returns transactions per mega-cycle of makespan.
func (s Stats) Throughput(txns int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(txns) / (float64(s.Cycles) / 1e6)
}

// SteadyThroughput returns transactions per mega-cycle of *busy* time
// per core — the throughput a continuous arrival stream would sustain.
// The experiment drivers use this for the paper's Figures 6 and 8.
func (s Stats) SteadyThroughput(txns, cores int) float64 {
	if s.BusyCycles == 0 || cores == 0 {
		return 0
	}
	perCore := float64(s.BusyCycles) / float64(cores)
	return float64(txns) / (perCore / 1e6)
}

// Result is the outcome of Engine.Run.
type Result struct {
	Stats   Stats
	Threads []*Thread // in workload order, all finished
}

// Engine wires cores, memory, prefetcher and scheduler together and
// replays a workload set to completion.
type Engine struct {
	cfg   Config
	cores []*Core
	mem   *memsys.Hierarchy
	pf    prefetch.Prefetcher
	sched Scheduler
	lat   memsys.Latencies // hoisted out of the hot loop

	// heap holds the busy cores as a min-heap on (Clock, ID) — the
	// lowest core ID wins clock ties, matching the reference selector's
	// ascending scan. idle holds the rest in ascending ID order (the
	// dispatch-offer order).
	heap []*Core
	idle []*Core

	// Per-run capability snapshot (taken at the top of Run).
	hooks     HookMask
	pfPassive bool                // prefetcher has no on-hit side effects
	pfHides   bool                // prefetcher hides miss latency (PIF)
	fastHits  bool                // hit-run fast path licensed (hooks + prefetcher)
	batchHits bool                // hit runs must be gated and reported (HookIHitBatch)
	runPF     prefetch.Prefetcher // prefetcher driven inside hit runs (nil when passive)

	threads    []*Thread
	pending    []*Thread // not yet dispatched, arrival order
	live       int       // threads not yet finished
	busyCycles uint64

	// arr, when non-nil, holds each thread's open-loop arrival clock
	// (aligned with threads, non-decreasing; see SetArrivals). arrNext
	// is the first thread not yet admitted to the pending queue. A nil
	// arr is the closed loop: every thread pending at cycle 0.
	arr     []uint64
	arrNext int

	// threadArena backs threads: Reset recycles it so a pooled engine's
	// steady state performs no per-run allocation. Result.Threads alias
	// the arena — Result.Detach copies them out before the next Reset.
	threadArena []Thread

	// stop, when non-nil, is polled by Run every stopStride scheduling
	// steps (a step is at most one quantum, so a closed channel halts the
	// run within a bounded number of quantum boundaries). A stopped run
	// returns the partial result and reports Stopped() true; callers that
	// honor cancellation must discard that result.
	stop     <-chan struct{}
	stopTick int
	stopped  bool

	// tl, when non-nil, receives quantum and absorption spans as the run
	// executes (see SetTimeline). Every recording site is guarded by a
	// nil check, so the untraced hot path pays one predictable branch
	// and no allocation — the zero-alloc steady state holds.
	tl *obs.Timeline
}

// stopStride is how many scheduling steps Run executes between polls of
// the stop channel. Large enough that the poll is invisible in the
// entries/sec benchmarks, small enough that cancellation lands within
// milliseconds of wall-clock at simulated speed.
const stopStride = 1024

// SetStop arms (ch non-nil) or disarms (nil) run interruption. Run and
// runSolo poll ch periodically; once it is closed the engine abandons
// the remaining threads and returns with Stopped() true. Callers that
// reuse an engine (Reset) must disarm between runs — the channel is
// deliberately not cleared by Reset so an executor can arm the engine
// before Run without racing it.
func (e *Engine) SetStop(ch <-chan struct{}) {
	e.stop = ch
	e.stopTick = 0
}

// Stopped reports whether the last Run was interrupted by the stop
// channel (its result is partial: unfinished threads carry zero
// FinishCycle stamps).
func (e *Engine) Stopped() bool { return e.stopped }

// SetTimeline attaches (non-nil) or detaches (nil) a run-timeline
// tracer. The engine records one span per scheduling quantum (with the
// reason it ended) and one span per hit-run absorption stretch.
// Tracing is strictly observational: it never changes execution order,
// clocks, or results. Callers that pool engines must detach before
// returning one to the pool.
func (e *Engine) SetTimeline(tl *obs.Timeline) { e.tl = tl }

// SetArrivals arms (clocks non-nil) or disarms (nil) open-loop
// admission for the next run. clocks[i] is the cycle thread i becomes
// eligible to run; the slice must be non-decreasing with one clock per
// transaction in set order. While armed, the pending queue starts
// empty and each thread joins it — EnqueueCycle and ReadyAt stamped
// with its arrival clock — once the machine's time frontier reaches
// that clock; a fully drained machine jumps to the next arrival
// instead of panicking. An all-zero clock vector admits everything at
// cycle 0 and is bit-for-bit identical to the closed loop (the
// differential gate in the facade tests pins this).
//
// Call between New/Reset and Run. Like SetStop and SetTimeline this is
// a per-run arming: prepare disarms automatically, and callers that
// pool engines must disarm (nil) before returning one — disarming
// restores the closed-loop pending queue.
func (e *Engine) SetArrivals(clocks []uint64) {
	if clocks == nil {
		if e.arr != nil {
			e.arr = nil
			e.arrNext = 0
			e.pending = e.pending[:0]
			e.pending = append(e.pending, e.threads...)
		}
		return
	}
	if len(clocks) != len(e.threads) {
		panic(fmt.Sprintf("sim: SetArrivals with %d clocks for %d threads", len(clocks), len(e.threads)))
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[i-1] {
			panic("sim: SetArrivals clocks must be non-decreasing")
		}
	}
	e.arr = clocks
	e.arrNext = 0
	e.pending = e.pending[:0]
}

// admitArrivals is the per-iteration open-loop admission step shared
// by Run, runSolo and RunReference. Every thread whose arrival clock
// has been reached by the machine's time frontier — the maximum core
// clock, a pure function of machine state, so all three execution
// loops admit identically at equivalent states regardless of their
// step granularity — joins the pending queue. When no core is busy
// and nothing is pending, the machine is idle-waiting: time jumps to
// the next arrival so at least one thread becomes dispatchable.
// pending was preallocated at full capacity by prepare, so admission
// never allocates (the zero-alloc steady state holds).
func (e *Engine) admitArrivals(busy bool) {
	if e.arrNext >= len(e.arr) {
		return
	}
	now := e.cores[0].Clock
	for _, c := range e.cores[1:] {
		if c.Clock > now {
			now = c.Clock
		}
	}
	e.admit(now)
	if !busy && len(e.pending) == 0 && e.arrNext < len(e.arr) {
		e.admit(e.arr[e.arrNext])
	}
}

// admit moves every thread that has arrived by cycle now from the
// arrival stream to the pending queue, stamping its queue entry.
func (e *Engine) admit(now uint64) {
	for e.arrNext < len(e.arr) && e.arr[e.arrNext] <= now {
		t := e.threads[e.arrNext]
		t.EnqueueCycle = e.arr[e.arrNext]
		t.ReadyAt = e.arr[e.arrNext]
		e.pending = append(e.pending, t)
		e.arrNext++
	}
}

// stopRequested polls the stop channel at stopStride granularity — the
// heap loop's steps are fine-grained (sub-quantum), so the common case
// (no channel, or channel armed but open) must stay a nil check plus an
// occasional non-blocking receive.
func (e *Engine) stopRequested() bool {
	if e.stop == nil {
		return false
	}
	e.stopTick++
	if e.stopTick < stopStride {
		return false
	}
	e.stopTick = 0
	return e.stopNow()
}

// stopNow polls the stop channel unconditionally. runSolo uses it every
// iteration: a solo iteration replays an entire quantum (often a whole
// transaction), so one non-blocking receive per iteration is invisible
// yet bounds the cancellation delay by a single quantum.
func (e *Engine) stopNow() bool {
	if e.stop == nil {
		return false
	}
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// New builds an engine for the given workload set and scheduler.
func New(cfg Config, set *workload.Set, sched Scheduler) *Engine {
	if cfg.Cores <= 0 {
		panic("sim: need at least one core")
	}
	cfg = normalize(cfg)
	e := &Engine{
		cfg:   cfg,
		mem:   memsys.New(cfg.Mem),
		pf:    prefetch.New(cfg.Prefetcher, codegen.DataBase),
		sched: sched,
	}
	e.lat = e.mem.Lat()
	for c := 0; c < cfg.Cores; c++ {
		core := &Core{
			ID: c,
			Stepper: Stepper{
				L1I: cache.New(cache.Config{
					SizeBytes: cfg.L1IKB << 10, BlockBytes: 64, Ways: cfg.L1Ways,
					Policy: cfg.IPolicy, Seed: cfg.Seed ^ uint64(c)<<8,
				}),
				L1D: cache.New(cache.Config{
					SizeBytes: cfg.L1DKB << 10, BlockBytes: 64, Ways: cfg.L1Ways,
					Policy: cache.LRU, Seed: cfg.Seed ^ uint64(c)<<16 ^ 0xD,
				}),
			},
		}
		e.mem.AttachL1D(c, core.L1D)
		e.cores = append(e.cores, core)
	}
	e.prepare(set, sched)
	return e
}

// normalize applies New's config defaulting rules.
func normalize(cfg Config) Config {
	if cfg.PoolWindow <= 0 {
		cfg.PoolWindow = 30
	}
	cfg.Mem.Cores = cfg.Cores
	return cfg
}

// Geometry returns the configuration with its seeds zeroed — everything
// that determines the engine's allocated shape. Two configs with equal
// Geometry may share a pooled engine via Reset.
func (c Config) Geometry() Config {
	c.Seed = 0
	c.Mem.Seed = 0
	return normalize(c)
}

// prepare builds the per-run state — threads (recycling the arena),
// queues, idle list — and binds the scheduler. Shared by New and Reset.
func (e *Engine) prepare(set *workload.Set, sched Scheduler) {
	e.sched = sched
	e.heap = e.heap[:0]
	e.idle = e.idle[:0]
	e.idle = append(e.idle, e.cores...) // every core starts idle, ID order
	n := len(set.Txns)
	if cap(e.threadArena) < n {
		e.threadArena = make([]Thread, n)
		e.threads = make([]*Thread, 0, n)
		e.pending = make([]*Thread, 0, n)
	}
	arena := e.threadArena[:n]
	e.threads = e.threads[:0]
	e.pending = e.pending[:0]
	for i, tx := range set.Txns {
		arena[i] = Thread{Txn: tx, Cursor: trace.NewCursor(tx.Trace)}
		e.threads = append(e.threads, &arena[i])
		e.pending = append(e.pending, &arena[i])
	}
	e.live = n
	e.busyCycles = 0
	e.arr = nil // arrivals are a per-run arming, like a timeline tracer
	e.arrNext = 0
	sched.Bind(e)
}

// Reset rewinds a used engine to the state New(cfg, set, sched) would
// produce, reusing every allocation: caches are flushed and reseeded in
// place, the memory system and thread arena recycled. cfg must have the
// same Geometry as the engine's original configuration (only seeds may
// differ). A Reset invalidates the Threads of any Result previously
// returned by this engine — callers that keep results across runs must
// Detach them first.
func (e *Engine) Reset(cfg Config, set *workload.Set, sched Scheduler) {
	if cfg.Cores <= 0 {
		panic("sim: need at least one core")
	}
	cfg = normalize(cfg)
	if cfg.Geometry() != e.cfg.Geometry() {
		panic(fmt.Sprintf("sim: Reset with different geometry:\n  have %+v\n  want %+v", cfg.Geometry(), e.cfg.Geometry()))
	}
	e.cfg = cfg
	for _, c := range e.cores {
		id := uint64(c.ID)
		c.L1I.Reset(cfg.Seed ^ id<<8)
		c.L1D.Reset(cfg.Seed ^ id<<16 ^ 0xD)
		c.Clock = 0
		c.Cur = nil
		c.QInstrs = 0
		c.Switches, c.Migrations = 0, 0
		c.phase, c.tagged = 0, false
	}
	e.mem.Reset(cfg.Mem.Seed)
	e.pf = prefetch.New(cfg.Prefetcher, codegen.DataBase)
	e.prepare(set, sched)
}

// Cores returns the core count.
func (e *Engine) Cores() int { return e.cfg.Cores }

// Core returns core c (schedulers inspect caches through this).
func (e *Engine) Core(c int) *Core { return e.cores[c] }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Lat returns the timing parameters.
func (e *Engine) Lat() memsys.Latencies { return e.mem.Lat() }

// Pending returns the scheduler-visible window of undispatched threads
// (up to PoolWindow, arrival order).
func (e *Engine) Pending() []*Thread {
	n := len(e.pending)
	if n > e.cfg.PoolWindow {
		n = e.cfg.PoolWindow
	}
	return e.pending[:n]
}

// TakePending removes t from the pending queue (schedulers call this
// when they claim a thread for a team or a core).
func (e *Engine) TakePending(t *Thread) {
	for i, p := range e.pending {
		if p == t {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return
		}
	}
	panic("sim: TakePending on a thread not pending")
}

// --- busy-core min-heap ----------------------------------------------------

// coreLess orders the heap: earliest clock first, lowest core ID on
// ties. The tie-break reproduces the reference selector's ascending
// scan with strict less-than, which keeps the first (lowest-ID) core
// among equals — same-seed runs stay byte-identical.
func coreLess(a, b *Core) bool {
	return a.Clock < b.Clock || (a.Clock == b.Clock && a.ID < b.ID)
}

func (e *Engine) heapPush(c *Core) {
	e.heap = append(e.heap, c)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !coreLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) heapSiftDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && coreLess(e.heap[l], e.heap[min]) {
			min = l
		}
		if r < n && coreLess(e.heap[r], e.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}

func (e *Engine) heapPopRoot() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n > 0 {
		e.heapSiftDown(0)
	}
}

// idleAdd inserts c into the idle list keeping ascending ID order.
func (e *Engine) idleAdd(c *Core) {
	i := len(e.idle)
	e.idle = append(e.idle, c)
	for i > 0 && e.idle[i-1].ID > c.ID {
		e.idle[i] = e.idle[i-1]
		i--
	}
	e.idle[i] = c
}

// dispatchIdle offers every idle core (ascending ID) to the scheduler,
// installing and heap-pushing the threads it returns. Cores left
// without work stay idle and are re-offered after the next step — the
// same offer pattern as the reference selector, so the scheduler sees
// an identical Dispatch call sequence.
func (e *Engine) dispatchIdle() {
	kept := e.idle[:0]
	for _, c := range e.idle {
		if t := e.sched.Dispatch(c.ID); t != nil {
			e.install(c, t)
			e.heapPush(c)
		} else {
			kept = append(kept, c)
		}
	}
	e.idle = kept
}

// Run executes the workload to completion and returns the result.
//
// The loop is event-driven: the min-heap yields the lagging busy core
// in O(log cores), the core executes until its next externally visible
// event (hit runs collapse into one step), and only then re-enters the
// heap. Output is byte-identical to RunReference at the same seed.
func (e *Engine) Run() Result {
	e.stopped = false
	e.hooks = e.sched.Hooks()
	e.pfPassive = e.pf.PassiveOnHit()
	e.pfHides = e.pf.HidesMisses()
	e.batchHits = e.hooks&HookIHitBatch != 0
	// Hit runs need a scheduler that never observes hits per entry
	// (HookIHit clear; batched observation is fine) and cache contents
	// that stay in global order: a passive prefetcher always qualifies,
	// an active one only when no scheduler probes remote caches.
	e.fastHits = e.hooks&HookIHit == 0 &&
		(e.pfPassive || e.hooks&HookRemoteCaches == 0)
	e.runPF = nil
	if !e.pfPassive {
		e.runPF = e.pf // drive prefetch fills inside hit runs, in order
	}
	// Solo fast path: with one core there is no cross-core clock order
	// to preserve, so if the scheduler observes no per-entry events a
	// whole quantum replays in a tight loop (see runSolo).
	if len(e.cores) == 1 && e.hooks&(HookIHit|HookIHitBatch|HookIMiss|HookData) == 0 {
		e.runSolo()
		return e.collect()
	}
	for e.live > 0 {
		if e.stopRequested() {
			e.stopped = true
			break
		}
		if e.arr != nil {
			e.admitArrivals(len(e.heap) > 0)
		}
		if len(e.idle) > 0 {
			e.dispatchIdle()
		}
		if len(e.heap) == 0 {
			panic("sim: live threads but no runnable core (scheduler dropped a thread)")
		}
		c := e.heap[0]
		before := c.Clock
		e.step(c)
		e.busyCycles += c.Clock - before
		if c.Cur != nil {
			e.heapSiftDown(0) // clock advanced; ID unchanged
		} else {
			e.heapPopRoot()
			e.idleAdd(c)
		}
	}
	if e.stopped && e.tl != nil {
		// Close the open quanta so an interrupted trace still renders.
		for _, c := range e.heap {
			if t := c.Cur; t != nil {
				e.tl.Quantum(c.ID, t.Txn.ID, t.Txn.Type, c.qStart, c.Clock, obs.ReasonStop, c.QInstrs)
			}
		}
	}
	return e.collect()
}

func (e *Engine) install(c *Core, t *Thread) {
	if t.ReadyAt > c.Clock {
		c.Clock = t.ReadyAt
	}
	if !t.started {
		t.started = true
		t.StartCycle = c.Clock
	}
	c.Cur = t
	c.QInstrs = 0
	c.qStart = c.Clock
	c.phase, c.tagged = e.sched.Phase(c.ID)
}

// finish retires t on c (the cursor is exhausted).
func (e *Engine) finish(c *Core, t *Thread) {
	if e.tl != nil {
		e.tl.Quantum(c.ID, t.Txn.ID, t.Txn.Type, c.qStart, c.Clock, obs.ReasonComplete, c.QInstrs)
	}
	t.FinishCycle = c.Clock
	c.Cur = nil
	e.live--
	e.sched.OnComplete(c.ID, t)
}

// step executes core c up to and including its next externally visible
// trace entry.
//
// An instruction entry is looked up in the L1-I once, and that lookup
// decides its path. A plain hit (no prefetch credit) that is not the
// trace's final entry, on a scheduler that owes no per-hit notification
// or whose batched observation allows it (HitRunOK), starts a hit run:
// the hit is applied here and Stepper.HitRun continues from the next
// entry, without constructing events or consulting anyone. Such entries
// touch only core-private state, so executing the whole run ahead of
// the global clock order is exact; the final entry is left for the heap
// because completion is scheduler-visible. Any other instruction entry
// takes the slow path on the same lookup: the victim monitor peeks the
// set it found, and the hit or fill is applied to it. Data entries take
// AccessBrief, as replaySolo does. See docs/ENGINE.md.
func (e *Engine) step(c *Core) {
	t := c.Cur
	entry := t.Cursor.Peek()
	ev := Event{Entry: entry}
	if entry.Kind == trace.KInstr {
		l1i := c.L1I
		var pid uint8 // phase passed to the L1-I: zero unless tagging (Touch semantics)
		if c.tagged {
			pid = c.phase
		}
		s := l1i.Lookup(entry.Block)
		// STREX's switch-before-evict: if filling this instruction block
		// would displace a block the scheduler still wants resident,
		// context switch without consuming the entry — the fetch replays
		// on resume.
		if c.tagged && e.hooks&HookWouldEvict != 0 {
			if victimPhase, would := l1i.WouldEvictAt(s); would && e.sched.OnWouldEvict(c.ID, victimPhase) {
				if e.tl != nil {
					e.tl.Quantum(c.ID, t.Txn.ID, t.Txn.Type, c.qStart, c.Clock, obs.ReasonPreempt, c.QInstrs)
				}
				c.Clock += uint64(e.lat.SwitchCost)
				c.Switches++
				t.ReadyAt = c.Clock
				c.Cur = nil
				e.sched.OnYield(c.ID, t)
				return
			}
		}
		t.Cursor.Advance(1)
		n := uint64(entry.N) // 1 IPC
		if s.Resident() {
			pfHit := l1i.HitAt(s, false, pid, c.tagged)
			if !pfHit && e.fastHits && !t.Cursor.Done() && (!e.batchHits || e.sched.HitRunOK(c.ID)) {
				if e.runPF != nil {
					e.runPF.OnIFetch(l1i, entry.Block, true)
				}
				more, entries := c.HitRun(&t.Cursor, pid, c.tagged, e.runPF)
				n += more
				entries++
				if e.tl != nil {
					e.tl.Absorb(c.ID, t.Txn.ID, c.Clock, c.Clock+n, uint64(entries))
				}
				c.Clock += n
				t.Instrs += n
				c.QInstrs += n
				if e.batchHits {
					e.sched.OnHitRun(c.ID, entries, n)
				}
				return // next entry (miss/data/last) runs when c is min again
			}
			if pfHit {
				// A late next-line prefetch hides most but not all latency.
				c.Clock += uint64(e.lat.L2Hit / 2)
			}
		} else {
			ev.IMiss = true
			l1i.MissAt(s, entry.Block, false, pid)
			if lat := e.mem.FetchI(c.ID, entry.Block); !e.pfHides {
				c.Clock += uint64(lat)
			}
		}
		c.Clock += n
		t.Instrs += n
		c.QInstrs += n
		if !e.pfPassive {
			e.pf.OnIFetch(l1i, entry.Block, !ev.IMiss)
		}
	} else {
		t.Cursor.Advance(1)
		write := entry.Kind == trace.KStore
		c.Clock++ // address generation / pipeline slot
		if hit, _ := c.L1D.AccessBrief(entry.Block, write, 0, false); !hit {
			c.Clock += uint64(e.mem.FetchD(c.ID, entry.Block, write))
		} else if write {
			c.Clock += uint64(e.mem.WriteHit(c.ID, entry.Block))
		} else {
			e.mem.ReadHit(c.ID, entry.Block)
		}
	}

	if t.Cursor.Done() {
		e.finish(c, t)
		return
	}

	var deliver bool
	switch {
	case entry.Kind != trace.KInstr:
		deliver = e.hooks&HookData != 0
	case ev.IMiss:
		deliver = e.hooks&HookIMiss != 0
	default:
		// A hit that reaches the slow path (unbatchable scheduler
		// state, prefetch credit, final entry) is delivered per entry
		// to batch observers too.
		deliver = e.hooks&(HookIHit|HookIHitBatch) != 0
	}
	if !deliver {
		return
	}
	act, target := e.sched.OnEvent(c.ID, ev)
	switch act {
	case Continue:
	case Yield:
		if e.tl != nil {
			e.tl.Quantum(c.ID, t.Txn.ID, t.Txn.Type, c.qStart, c.Clock, obs.ReasonYield, c.QInstrs)
		}
		c.Clock += uint64(e.lat.SwitchCost)
		c.Switches++
		t.ReadyAt = c.Clock
		c.Cur = nil
		e.sched.OnYield(c.ID, t)
	case Migrate:
		if target == c.ID || target < 0 || target >= len(e.cores) {
			panic(fmt.Sprintf("sim: bad migration target %d", target))
		}
		if e.tl != nil {
			e.tl.Quantum(c.ID, t.Txn.ID, t.Txn.Type, c.qStart, c.Clock, obs.ReasonMigrate, c.QInstrs)
		}
		c.Clock += uint64(e.lat.MigrateCost) / 2 // send half
		c.Migrations++
		t.ReadyAt = c.Clock + uint64(e.lat.MigrateCost)/2 // receive half
		c.Cur = nil
		e.sched.OnMigrate(c.ID, target, t)
	}
}

// runSolo is Run's single-core loop. With one core nothing ever needs
// to be sequenced against another clock, so scheduler-inert stretches —
// entire quanta when the scheduler observes no per-entry events — are
// replayed in one tight pass (replaySolo) instead of per-step heap
// turns. Only schedulers whose HookMask clears every per-entry event
// category get here; the WouldEvict consultation (which can interrupt a
// quantum) routes through the general step loop. Dispatch and
// OnComplete are invoked in exactly the order the general loop would
// use, and per-thread cycle stamps, statistics and cache state are
// byte-identical to RunReference.
func (e *Engine) runSolo() {
	c := e.cores[0]
	for e.live > 0 {
		if e.stopNow() {
			e.stopped = true
			return
		}
		if e.arr != nil {
			e.admitArrivals(c.Cur != nil)
		}
		if c.Cur == nil {
			t := e.sched.Dispatch(c.ID)
			if t == nil {
				panic("sim: live threads but no runnable core (scheduler dropped a thread)")
			}
			e.install(c, t)
		}
		before := c.Clock
		if c.tagged && e.hooks&HookWouldEvict != 0 {
			// The victim monitor may preempt mid-quantum: sequence this
			// quantum entry by entry through the general step.
			e.step(c)
		} else {
			e.replaySolo(c)
		}
		e.busyCycles += c.Clock - before
	}
}

// replaySolo runs core c's current thread to completion. Per entry it
// performs exactly the general step's slow-path work (same cache calls,
// same latency charges, in trace order).
func (e *Engine) replaySolo(c *Core) {
	t := c.Cur
	l1i, l1d := c.L1I, c.L1D
	rest := t.Cursor.Rest()
	tagged := c.tagged
	var pid uint8 // phase passed to the L1-I: zero unless tagging (Touch semantics)
	if tagged {
		pid = c.phase
	}
	mem, coreID, pfHides := e.mem, c.ID, e.pfHides
	clock := c.Clock
	var instrs uint64
	for _, en := range rest {
		if en.Kind == trace.KInstr {
			clock += uint64(en.N) // 1 IPC
			instrs += uint64(en.N)
			hit, pfHit := l1i.AccessBrief(en.Block, false, pid, tagged)
			if !hit {
				lat := mem.FetchI(coreID, en.Block)
				if !pfHides {
					clock += uint64(lat)
				}
			} else if pfHit {
				// A late next-line prefetch hides most but not all latency.
				clock += uint64(e.lat.L2Hit / 2)
			}
			if !e.pfPassive {
				e.pf.OnIFetch(l1i, en.Block, hit)
			}
		} else {
			write := en.Kind == trace.KStore
			clock++ // address generation / pipeline slot
			hit, _ := l1d.AccessBrief(en.Block, write, 0, false)
			if !hit {
				clock += uint64(mem.FetchD(coreID, en.Block, write))
			} else if write {
				clock += uint64(mem.WriteHit(coreID, en.Block))
			} else {
				mem.ReadHit(coreID, en.Block)
			}
		}
	}
	t.Cursor.Advance(len(rest))
	c.Clock = clock
	t.Instrs += instrs
	c.QInstrs += instrs
	e.finish(c, t)
}

// Detach returns a copy of the result whose Threads no longer alias the
// producing engine's internal arena, so the engine can be Reset (or
// pooled) while the result stays valid indefinitely.
func (r Result) Detach() Result {
	threads := make([]*Thread, len(r.Threads))
	for i, t := range r.Threads {
		cp := *t
		threads[i] = &cp
	}
	r.Threads = threads
	return r
}

func (e *Engine) collect() Result {
	var s Stats
	for _, c := range e.cores {
		if c.Clock > s.Cycles {
			s.Cycles = c.Clock
		}
		s.IMisses += c.L1I.Stats.Misses
		s.IAccesses += c.L1I.Stats.Accesses
		s.DMisses += c.L1D.Stats.Misses
		s.DAccesses += c.L1D.Stats.Accesses
		s.Switches += c.Switches
		s.Migrations += c.Migrations
	}
	for _, t := range e.threads {
		s.Instrs += t.Instrs
	}
	s.L2Misses = e.mem.Stats.L2Misses
	s.Invalidations = e.mem.Stats.Invalidations
	s.BusyCycles = e.busyCycles
	return Result{Stats: s, Threads: e.threads}
}
