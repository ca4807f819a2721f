// Package memsys models everything below the private L1 caches: the
// shared NUCA L2, the 2D-torus interconnect that determines slice access
// latency, main memory, and a directory that keeps the private L1-D
// caches coherent (MESI-style invalidation, paper Table 2).
//
// Timing is deliberately simple — fixed hit/miss latencies plus hop
// counts — because STREX's effect is first-order in *miss counts*, not in
// queueing detail. The latencies default to the paper's Table 2 values
// (2.5GHz core, 16-cycle L2 hit, 42ns DRAM ≈ 105 cycles).
package memsys

import (
	"fmt"

	"strex/internal/cache"
)

// Latencies collects the fixed access costs, in core cycles.
type Latencies struct {
	L1Hit       int // load-to-use (Table 2); not modelled: no code charges it
	L2Hit       int // L2 slice hit, before interconnect hops
	Mem         int // DRAM access (42ns at 2.5GHz)
	HopCycles   int // per-hop 2D torus latency
	Coherence   int // extra cycles for an invalidation round
	SwitchCost  int // save+restore of a thread context to/from the local L2 slice
	MigrateCost int // SLICC migration: context transfer to a remote core
}

// DefaultLatencies returns the Table 2 derived timing parameters.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:       3,
		L2Hit:       16,
		Mem:         105,
		HopCycles:   1,
		Coherence:   8,
		SwitchCost:  160,
		MigrateCost: 320,
	}
}

// Config describes the shared memory system.
type Config struct {
	Cores      int
	L2SliceKB  int // capacity per slice (per core); paper: 1MB per core
	L2Ways     int
	BlockBytes int
	Lat        Latencies
	Seed       uint64
}

// DefaultConfig returns the paper's Table 2 memory system for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:      n,
		L2SliceKB:  1024,
		L2Ways:     16,
		BlockBytes: 64,
		Lat:        DefaultLatencies(),
		Seed:       1,
	}
}

// Hierarchy is the shared portion of the memory system. The per-core L1s
// live in internal/cpu; the hierarchy keeps pointers to the L1-Ds so the
// directory can invalidate remote copies on writes.
type Hierarchy struct {
	cfg      Config
	l2       *cache.Cache // one logical cache; NUCA latency modeled by slice distance
	dims     [2]int       // torus dimensions (x, y)
	coreMask uint32       // cores-1 when cores is a power of two, else 0
	l1ds     []*cache.Cache
	// directory: data block -> bitmask of cores whose L1-D may hold it.
	// The mask is conservative (a core's bit clears only on invalidation
	// or when an eviction is reported), exactly like a real sparse
	// directory with imprecise presence bits. Stored as a lazily
	// allocated paged array (data blocks are allocated densely from
	// codegen.DataBase, with one far region for the mapreduce shuffle
	// space): the directory is consulted on every data access, and a
	// two-level array lookup is several times cheaper than a map probe.
	dir dirTable
	// l2lat[core*Cores+slice] precomputes L2Hit + round-trip hop latency
	// so the per-miss path is one table load instead of torus
	// arithmetic (flattened: the lookup runs on every L1 miss).
	l2lat []int

	Stats Stats
}

// MaxCores is the most cores a hierarchy models: a directory presence
// mask is a uint64 with one bit per core.
const MaxCores = 64

// dirPageBits sizes directory pages at 4096 entries (32KB) each.
const dirPageBits = 12

// dirTable is the paged presence-bit store. The zero mask means "no
// sharers", exactly like an absent key in the map it replaces.
type dirTable struct {
	pages []*[1 << dirPageBits]uint64 // indexed by block >> dirPageBits; nil = all zero
}

func (d *dirTable) get(block uint32) uint64 {
	p := int(block >> dirPageBits)
	if p >= len(d.pages) || d.pages[p] == nil {
		return 0
	}
	return d.pages[p][block&(1<<dirPageBits-1)]
}

// ref returns the writable mask word for block, allocating its page
// (the top level grows by append, so its copies stay amortized).
func (d *dirTable) ref(block uint32) *uint64 {
	p := int(block >> dirPageBits)
	if p >= len(d.pages) {
		d.pages = append(d.pages, make([]*[1 << dirPageBits]uint64, p+1-len(d.pages))...)
	}
	if d.pages[p] == nil {
		d.pages[p] = new([1 << dirPageBits]uint64)
	}
	return &d.pages[p][block&(1<<dirPageBits-1)]
}

// Stats counts shared-level events.
type Stats struct {
	L2Accesses    uint64
	L2Hits        uint64
	L2Misses      uint64
	Invalidations uint64 // remote L1-D lines killed by writes
	MemReads      uint64
}

// New builds the shared hierarchy. l1ds must hold one L1-D per core and
// is used for coherence invalidations; pass the slice before running.
func New(cfg Config) *Hierarchy {
	if cfg.Cores <= 0 || cfg.Cores > MaxCores {
		panic(fmt.Sprintf("memsys: %d cores outside [1, %d]", cfg.Cores, MaxCores))
	}
	total := cfg.L2SliceKB * 1024 * cfg.Cores
	l2 := cache.New(cache.Config{
		SizeBytes:  total,
		BlockBytes: cfg.BlockBytes,
		Ways:       cfg.L2Ways,
		Policy:     cache.LRU,
		Seed:       cfg.Seed ^ 0x12,
	})
	h := &Hierarchy{
		cfg:  cfg,
		l2:   l2,
		dims: torusDims(cfg.Cores),
		l1ds: make([]*cache.Cache, cfg.Cores),
	}
	if cfg.Cores&(cfg.Cores-1) == 0 {
		h.coreMask = uint32(cfg.Cores - 1)
	}
	h.l2lat = make([]int, cfg.Cores*cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		for s := 0; s < cfg.Cores; s++ {
			// request + response hops on top of the slice hit time
			h.l2lat[c*cfg.Cores+s] = cfg.Lat.L2Hit + 2*h.hopDistance(c, s)*cfg.Lat.HopCycles
		}
	}
	return h
}

// AttachL1D registers core's L1-D for coherence actions.
func (h *Hierarchy) AttachL1D(core int, c *cache.Cache) { h.l1ds[core] = c }

// Reset returns the hierarchy to its as-constructed state under a new
// seed without releasing any allocation: the L2 is reset in place,
// directory pages are zeroed but retained, statistics cleared. Engine
// pooling calls this between runs; attached L1-Ds stay attached (their
// owner resets them separately).
func (h *Hierarchy) Reset(seed uint64) {
	h.cfg.Seed = seed
	h.l2.Reset(seed ^ 0x12)
	for _, pg := range h.dir.pages {
		if pg != nil {
			clear(pg[:])
		}
	}
	h.Stats = Stats{}
}

// Lat returns the timing parameters.
func (h *Hierarchy) Lat() Latencies { return h.cfg.Lat }

// Cores returns the core count.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// torusDims factors n into the most square (x, y) grid.
func torusDims(n int) [2]int {
	bestX := 1
	for x := 1; x*x <= n; x++ {
		if n%x == 0 {
			bestX = x
		}
	}
	return [2]int{bestX, n / bestX}
}

// hopDistance returns the Manhattan distance between cores a and b on the
// 2D torus (wraparound links).
func (h *Hierarchy) hopDistance(a, b int) int {
	ax, ay := a%h.dims[0], a/h.dims[0]
	bx, by := b%h.dims[0], b/h.dims[0]
	dx := absInt(ax - bx)
	if w := h.dims[0] - dx; w < dx {
		dx = w
	}
	dy := absInt(ay - by)
	if w := h.dims[1] - dy; w < dy {
		dy = w
	}
	return dx + dy
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// sliceOf statically interleaves blocks across L2 slices (a bitmask for
// the power-of-two core counts every standard configuration uses).
func (h *Hierarchy) sliceOf(block uint32) int {
	if h.coreMask != 0 {
		return int(block & h.coreMask)
	}
	return int(block) % h.cfg.Cores
}

// FetchI services an L1-I miss from core for block, returning the added
// latency in cycles (on top of the L1 access the core already charged).
func (h *Hierarchy) FetchI(core int, block uint32) int {
	return h.fetch(core, block, false)
}

// FetchD services an L1-D miss. A write additionally invalidates every
// other core's copy (directory coherence) and charges the coherence
// round-trip when remote copies existed. The caller must afterwards treat
// its own L1-D as the owner.
func (h *Hierarchy) FetchD(core int, block uint32, write bool) int {
	lat := h.fetch(core, block, true)
	if write {
		lat += h.invalidateRemote(core, block)
	}
	*h.dir.ref(block) |= 1 << uint(core)
	return lat
}

// WriteHit is called by the core model when a store hits its own L1-D;
// remote sharers must still be invalidated (upgrade miss). Returns extra
// latency (0 when the line was already exclusive).
func (h *Hierarchy) WriteHit(core int, block uint32) int {
	lat := h.invalidateRemote(core, block)
	*h.dir.ref(block) |= 1 << uint(core)
	return lat
}

// ReadHit records that core holds block (keeps the directory presence
// bits conservative even when lines were filled before attach). This
// runs on every L1-D read hit, so it avoids the map write when the
// presence bit is already set — the steady-state case.
func (h *Hierarchy) ReadHit(core int, block uint32) {
	bit := uint64(1) << uint(core)
	if h.dir.get(block)&bit == 0 {
		*h.dir.ref(block) |= bit
	}
}

func (h *Hierarchy) invalidateRemote(core int, block uint32) int {
	mask := h.dir.get(block) &^ (1 << uint(core))
	if mask == 0 {
		return 0
	}
	lat := 0
	for c := 0; c < h.cfg.Cores; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		if l1 := h.l1ds[c]; l1 != nil && l1.Invalidate(block) {
			h.Stats.Invalidations++
			lat = h.cfg.Lat.Coherence
		}
	}
	*h.dir.ref(block) = 1 << uint(core)
	return lat
}

// fetch looks up the shared L2 and, on miss, main memory. Instruction and
// data blocks live in disjoint block-index spaces (the trace generator
// guarantees it), so one physical L2 serves both, as in the paper.
func (h *Hierarchy) fetch(core int, block uint32, isData bool) int {
	_ = isData
	h.Stats.L2Accesses++
	lat := h.l2lat[core*h.cfg.Cores+h.sliceOf(block)] // L2Hit + request/response hops
	if hit, _ := h.l2.AccessBrief(block, false, 0, false); hit {
		h.Stats.L2Hits++
		return lat
	}
	h.Stats.L2Misses++
	h.Stats.MemReads++
	return lat + h.cfg.Lat.Mem
}

// L2 exposes the shared cache (for tests and diagnostics).
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// String summarizes the configuration.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("memsys{cores=%d l2=%dKBx%d torus=%dx%d}",
		h.cfg.Cores, h.cfg.L2SliceKB, h.cfg.Cores, h.dims[0], h.dims[1])
}
