// Package cache implements the set-associative cache model used for the
// private L1 instruction and data caches and the shared L2 of the STREX
// simulator.
//
// The model is block-granular: callers address the cache by *block index*
// (byte address >> log2(block size)); the cache never sees byte offsets.
// Each line carries, in addition to the usual tag/valid/dirty state, an
// 8-bit phaseID tag. In hardware this would live in the auxiliary PIDT
// table the paper describes (Section 4.3) so that the L1-I array itself
// is untouched; in the simulator the distinction is immaterial, but the
// 8-bit width and modulo semantics are preserved exactly.
//
// Replacement policies are pluggable (Section 5.7 of the paper):
// LRU, LIP, BIP, SRRIP and BRRIP.
//
// A demand access is one Lookup, which changes nothing, then HitAt or
// MissAt on the slot it found. Access and Touch do both; AccessBrief and
// AccessHit fuse them for the hottest loops.
//
// Layout note: the line array is two parallel slices — tags (with an
// InvalidBlock sentinel for invalid lines) and a packed per-line meta
// word (dirty/prefetch flags plus the phaseID) — beside a reverse
// block→way index, so a lookup costs two loads at any associativity.
// The simulator replays hundreds of millions of accesses per suite run,
// so the representation is chosen to touch as few host cache lines per
// simulated access as possible; see docs/ENGINE.md.
package cache

import (
	"fmt"

	"strex/internal/xrand"
)

// InvalidBlock is a block index that is never inserted into a cache.
// AccessResult uses it for "no victim"; internally it doubles as the
// invalid-line tag sentinel.
const InvalidBlock = ^uint32(0)

// Per-line meta word layout: flag bits in the low byte, phaseID in the
// high byte.
const (
	metaDirty = 1 << 0
	metaPF    = 1 << 1 // prefetched, not yet demand-touched
)

// Stats counts cache events. All counters are cumulative since creation
// or the last Reset.
type Stats struct {
	Accesses      uint64 // demand accesses (hit + miss)
	Hits          uint64
	Misses        uint64
	Evictions     uint64 // valid lines displaced by fills
	Invalidations uint64 // lines removed by coherence actions
	WriteBacks    uint64 // dirty lines displaced or invalidated
	PrefetchFills uint64 // lines inserted by a prefetcher
	PrefetchHits  uint64 // demand hits on lines a prefetcher inserted
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// MissRate returns misses/accesses, or 0 when idle.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int        // total capacity
	BlockBytes int        // line size (the simulator uses 64)
	Ways       int        // associativity
	Policy     PolicyKind // replacement policy
	Seed       uint64     // seed for bimodal policies (BIP/BRRIP)
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	blocks := c.SizeBytes / c.BlockBytes
	if blocks*c.BlockBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of block %d", c.SizeBytes, c.BlockBytes)
	}
	if blocks%c.Ways != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, c.Ways)
	}
	return nil
}

// AccessResult describes the outcome of a demand access or a touch.
type AccessResult struct {
	Hit         bool
	PrefetchHit bool   // the hit line was installed by a prefetcher
	Evicted     bool   // a valid line was displaced to make room
	VictimBlock uint32 // block index of the displaced line (if Evicted)
	VictimPhase uint8  // phaseID tag of the displaced line (if Evicted)
	VictimDirty bool
}

// Cache is a set-associative, write-back, block-granular cache model.
// It is not safe for concurrent use; the simulator is single-goroutine
// by design (determinism).
type Cache struct {
	sets    int
	ways    int
	setMask uint32 // sets-1 when sets is a power of two, else 0 (modulo fallback)
	cfg     Config
	tags    []uint32 // block per line (set*ways+way); InvalidBlock = invalid
	meta    []uint16 // packed flags (low byte) + phaseID (high byte)
	pol     policy
	// mat/mat16 devirtualize pol when it is one of the matrix LRU
	// forms: the replacement hooks run on every access, and a direct
	// call lets the compiler inline the one-word matrix update where an
	// interface call cannot be.
	mat   *matrixPolicy
	mat16 *matrix16Policy

	// loc is the reverse block→way index: a lazily paged array over the
	// block space (the same layout as memsys's directory pages) holding
	// way+1 for resident blocks, 0 otherwise. Lookup is two dependent
	// loads regardless of associativity — no per-way tag scan on hits
	// and, crucially, none on the miss-dominated paths either. Pages are
	// retained and zeroed by Flush so the steady state stays
	// allocation-free. Every tag mutation (fill, invalidate, flush)
	// updates it in lockstep with tags.
	loc [][]uint16
	// freeCount tracks invalid lines per set so the miss path only scans
	// for a free way during cold fill, never in the steady state.
	freeCount []int32

	// hasPF is set by the first InsertPrefetch and never cleared: while
	// false (every cache except an L1-I under an active prefetcher) the
	// hit paths skip the per-line meta load entirely — one less random
	// memory touch per simulated hit, and per L2 lookup.
	hasPF bool

	Stats Stats
}

// New builds a cache from cfg. It panics on invalid geometry, which is a
// programming error (configurations are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	sets := blocks / cfg.Ways
	c := &Cache{
		sets:      sets,
		ways:      cfg.Ways,
		cfg:       cfg,
		tags:      make([]uint32, blocks),
		meta:      make([]uint16, blocks),
		freeCount: make([]int32, sets),
	}
	for i := range c.freeCount {
		c.freeCount[i] = int32(cfg.Ways)
	}
	if sets&(sets-1) == 0 {
		// Power-of-two set count (every geometry the simulator builds):
		// set selection is a bitmask instead of a modulo.
		c.setMask = uint32(sets - 1)
	}
	for i := range c.tags {
		c.tags[i] = InvalidBlock
	}
	c.pol = newPolicy(cfg.Policy, sets, cfg.Ways, xrand.New(cfg.Seed^0xCACE))
	switch p := c.pol.(type) {
	case *matrixPolicy:
		c.mat = p
	case *matrix16Policy:
		c.mat16 = p
	}
	return c
}

// Reset returns the cache to its as-constructed state — empty, zero
// statistics, replacement policy re-armed from seed exactly as New
// would — without releasing any allocation. Engine pooling calls this
// between runs; a Reset cache is indistinguishable from a fresh one.
func (c *Cache) Reset(seed uint64) {
	c.cfg.Seed = seed
	c.Flush()
	c.hasPF = false
	c.Stats.Reset()
	c.pol.reset(seed ^ 0xCACE)
}

// polOnHit / polOnInsert / polVictim / polPeekVictim dispatch to the
// replacement policy, devirtualized for the matrix LRU forms.
func (c *Cache) polOnHit(set, way int) {
	if c.mat != nil {
		c.mat.promote(set, way)
	} else if c.mat16 != nil {
		c.mat16.promote(set, way)
	} else {
		c.pol.onHit(set, way)
	}
}

func (c *Cache) polOnInsert(set, way int) {
	if c.mat != nil {
		c.mat.promote(set, way)
	} else if c.mat16 != nil {
		c.mat16.promote(set, way)
	} else {
		c.pol.onInsert(set, way)
	}
}

func (c *Cache) polVictim(set int) int {
	if c.mat != nil {
		return c.mat.victim(set)
	}
	if c.mat16 != nil {
		return c.mat16.victim(set)
	}
	return c.pol.victim(set)
}

func (c *Cache) polPeekVictim(set int) int {
	if c.mat != nil {
		return c.mat.victim(set)
	}
	if c.mat16 != nil {
		return c.mat16.victim(set)
	}
	return c.pol.peekVictim(set)
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Blocks returns the total number of lines.
func (c *Cache) Blocks() int { return c.sets * c.ways }

// Config returns the construction-time configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setOf(block uint32) int {
	if c.setMask != 0 {
		return int(block & c.setMask)
	}
	return int(block) % c.sets
}

// locPageBits sizes location-index pages at 4096 entries (8KB) each,
// matching memsys's directory paging: block spaces are dense regions
// (instruction blocks from zero, data blocks from codegen.DataBase), so
// only the touched pages materialize.
const (
	locPageBits = 12
	locPageMask = 1<<locPageBits - 1
)

// A Slot is where Lookup placed a block: its set, its way when the
// block is resident (-1 otherwise) and, on a miss, the set's first free
// way (-1 when the set is full). It stays valid until the cache changes.
type Slot struct {
	set, way, free int
}

// Resident reports whether the looked-up block is in the cache.
func (s Slot) Resident() bool { return s.way >= 0 }

// Lookup locates block via the reverse index. The free-way scan only
// runs while the set still has invalid lines — cold fills — so the
// steady-state miss path never touches the tag array at all. It changes
// nothing: the demand access is applied to the slot by HitAt or MissAt.
func (c *Cache) Lookup(block uint32) Slot {
	if p := block >> locPageBits; int(p) < len(c.loc) {
		if pg := c.loc[p]; pg != nil {
			if w := pg[block&locPageMask]; w != 0 {
				return Slot{c.setOf(block), int(w) - 1, -1}
			}
		}
	}
	s := Slot{c.setOf(block), -1, -1}
	if c.freeCount[s.set] > 0 {
		base := s.set * c.ways
		tags := c.tags[base : base+c.ways] // one bounds check for the scan
		for w, t := range tags {
			if t == InvalidBlock {
				s.free = w
				break
			}
		}
	}
	return s
}

// locSet records block as resident in way, growing the page store on
// first touch of a region.
func (c *Cache) locSet(block uint32, way int) {
	p := int(block >> locPageBits)
	if p >= len(c.loc) {
		grown := make([][]uint16, p+1)
		copy(grown, c.loc)
		c.loc = grown
	}
	pg := c.loc[p]
	if pg == nil {
		pg = make([]uint16, 1<<locPageBits)
		c.loc[p] = pg
	}
	pg[block&locPageMask] = uint16(way) + 1
}

// locClear removes block from the index. The block must be resident
// (its page necessarily exists).
func (c *Cache) locClear(block uint32) {
	c.loc[block>>locPageBits][block&locPageMask] = 0
}

// Access performs a demand access to block. write marks the line dirty on
// hit or fill. On a miss the block is filled, possibly displacing a
// victim chosen by the replacement policy.
func (c *Cache) Access(block uint32, write bool) AccessResult {
	return c.access(block, write, 0, false)
}

// Touch performs a demand access and additionally tags the touched line
// with phaseID, whether the access hit or missed. This is STREX's rule 2
// (Section 4.2): "as a transaction touches instruction blocks it tags the
// block with the current phaseID value no matter whether the access was a
// hit or a miss."
func (c *Cache) Touch(block uint32, phaseID uint8) AccessResult {
	return c.access(block, false, phaseID, true)
}

func (c *Cache) access(block uint32, write bool, phaseID uint8, tagPhase bool) AccessResult {
	s := c.Lookup(block)
	if s.Resident() {
		return AccessResult{Hit: true, PrefetchHit: c.HitAt(s, write, phaseID, tagPhase)}
	}
	res := AccessResult{VictimBlock: InvalidBlock}
	if s.free < 0 {
		v := c.victimIndex(s)
		m := c.meta[v]
		res = AccessResult{Evicted: true, VictimBlock: c.tags[v], VictimPhase: uint8(m >> 8), VictimDirty: m&metaDirty != 0}
	}
	c.MissAt(s, block, write, phaseID)
	return res
}

// HitAt applies a demand hit on the resident slot s: hit statistics, the
// line's prefetch credit cleared, write marking it dirty, tagPhase
// tagging it with phaseID, and a replacement promotion. It reports
// whether the line was a prefetcher's, not yet demanded.
func (c *Cache) HitAt(s Slot, write bool, phaseID uint8, tagPhase bool) (pfHit bool) {
	c.Stats.Accesses++
	c.Stats.Hits++
	if c.hasPF || write || tagPhase {
		idx := s.set*c.ways + s.way
		m := c.meta[idx]
		nm := m
		if nm&metaPF != 0 {
			nm &^= metaPF
			c.Stats.PrefetchHits++
			pfHit = true
		}
		if write {
			nm |= metaDirty
		}
		if tagPhase {
			nm = nm&0x00FF | uint16(phaseID)<<8
		}
		if nm != m {
			// Skipping the no-change store keeps read-mostly hits
			// from dirtying a host cache line.
			c.meta[idx] = nm
		}
	}
	c.polOnHit(s.set, s.way)
	return pfHit
}

// MissAt applies a demand miss of block at the slot s that Lookup found
// for it: miss statistics, then block fills the set's free way or
// replaces the policy's victim.
func (c *Cache) MissAt(s Slot, block uint32, write bool, phaseID uint8) {
	if block == InvalidBlock {
		panic("cache: access to InvalidBlock")
	}
	c.Stats.Accesses++
	c.Stats.Misses++
	c.fill(s, block, write, phaseID)
}

// AccessHit performs a demand access if and only if it would hit in a
// line with no pending prefetch credit, returning whether it did. On
// true the access is fully accounted (hit statistics, replacement
// promotion, phase tagging when tagPhase); on false no state changed and
// the caller must fall back to Access/Touch, which will redo the lookup.
// This is the engine's hit-run primitive: the common case needs neither
// an AccessResult nor the fill machinery.
func (c *Cache) AccessHit(block uint32, phaseID uint8, tagPhase bool) bool {
	if block == InvalidBlock {
		panic("cache: access to InvalidBlock")
	}
	s := c.Lookup(block)
	if s.way < 0 {
		return false
	}
	idx := s.set*c.ways + s.way
	if c.hasPF || tagPhase {
		m := c.meta[idx]
		if m&metaPF != 0 {
			// First demand touch of a prefetched line carries result
			// bits (PrefetchHit) the slow path must surface.
			return false
		}
		if tagPhase {
			if nm := m&0x00FF | uint16(phaseID)<<8; nm != m {
				c.meta[idx] = nm
			}
		}
	}
	c.Stats.Accesses++
	c.Stats.Hits++
	c.polOnHit(s.set, s.way)
	return true
}

// fill installs block at the missed slot s — into its free way, or over
// the policy's victim when the set is full — and returns the way.
func (c *Cache) fill(s Slot, block uint32, write bool, phaseID uint8) int {
	way := s.free
	if way < 0 {
		way = c.evict(s.set)
	} else {
		c.freeCount[s.set]--
	}
	c.install(s.set, way, block, write, phaseID)
	return way
}

// evict selects a victim in set, removes it (statistics, reverse index)
// and returns the freed way. Shared by fill and AccessBrief.
func (c *Cache) evict(set int) int {
	way := c.polVictim(set)
	idx := set*c.ways + way
	if c.meta[idx]&metaDirty != 0 {
		c.Stats.WriteBacks++
	}
	c.Stats.Evictions++
	c.locClear(c.tags[idx])
	return way
}

// victimIndex returns the line a fill into the full set of s would
// replace, without changing replacement state: polPeekVictim predicts
// polVictim exactly (TestWouldEvictPredictionMatchesFill).
func (c *Cache) victimIndex(s Slot) int {
	return s.set*c.ways + c.polPeekVictim(s.set)
}

// install writes block into (set, way): tag, reverse index, meta,
// replacement insert. The line must already be free.
func (c *Cache) install(set, way int, block uint32, write bool, phaseID uint8) {
	idx := set*c.ways + way
	c.tags[idx] = block
	c.locSet(block, way)
	m := uint16(phaseID) << 8
	if write {
		m |= metaDirty
	}
	c.meta[idx] = m
	c.polOnInsert(set, way)
}

// AccessBrief performs exactly the demand access Access/Touch would —
// same statistics, same replacement, meta and reverse-index updates —
// but reports only the hit and prefetch-hit outcomes, with the lookup
// and both halves (HitAt, MissAt) fused into one frame. The engine's solo
// replay loop and the L2 fetch path issue this tens of millions of
// times per simulated run; dropping the AccessResult marshalling and
// the Lookup/MissAt call boundaries is a measurable share of the miss
// path. Any behavioural change here must be mirrored in HitAt and MissAt
// (TestAccessPathsAgree and the engine differentials compare them).
func (c *Cache) AccessBrief(block uint32, write bool, phaseID uint8, tagPhase bool) (hit, pfHit bool) {
	if block == InvalidBlock {
		panic("cache: access to InvalidBlock")
	}
	c.Stats.Accesses++
	if p := block >> locPageBits; int(p) < len(c.loc) {
		if pg := c.loc[p]; pg != nil {
			if w := pg[block&locPageMask]; w != 0 {
				set := c.setOf(block)
				way := int(w) - 1
				c.Stats.Hits++
				if c.hasPF || write || tagPhase {
					idx := set*c.ways + way
					m := c.meta[idx]
					nm := m
					if nm&metaPF != 0 {
						nm &^= metaPF
						c.Stats.PrefetchHits++
						pfHit = true
					}
					if write {
						nm |= metaDirty
					}
					if tagPhase {
						nm = nm&0x00FF | uint16(phaseID)<<8
					}
					if nm != m {
						c.meta[idx] = nm
					}
				}
				if c.mat != nil {
					c.mat.promote(set, way)
				} else if c.mat16 != nil {
					c.mat16.promote(set, way)
				} else {
					c.pol.onHit(set, way)
				}
				return true, pfHit
			}
		}
	}
	set := c.setOf(block)
	c.Stats.Misses++
	way := -1
	if c.freeCount[set] > 0 {
		base := set * c.ways
		tags := c.tags[base : base+c.ways]
		for w, t := range tags {
			if t == InvalidBlock {
				way = w
				break
			}
		}
	}
	if way < 0 {
		way = c.evict(set)
	} else {
		c.freeCount[set]--
	}
	c.install(set, way, block, write, phaseID)
	return false, false
}

// InsertPrefetch installs block without counting a demand access, as a
// hardware prefetcher would. If the block is already present it is a
// no-op. A prefetch can evict a teammate's block just like a demand
// fill can.
func (c *Cache) InsertPrefetch(block uint32) {
	s := c.Lookup(block)
	if s.Resident() {
		return
	}
	c.hasPF = true
	c.meta[s.set*c.ways+c.fill(s, block, false, 0)] |= metaPF
	c.Stats.PrefetchFills++
}

func (c *Cache) indexOf(block uint32) (int, bool) {
	s := c.Lookup(block)
	return s.set*c.ways + s.way, s.Resident()
}

// Contains reports whether block is resident. It does not disturb
// replacement state (probes are free, as a coherence snoop would be).
func (c *Cache) Contains(block uint32) bool {
	return c.Lookup(block).Resident()
}

// WouldEvict reports what a fill of block would displace, without
// performing the fill or disturbing replacement state. would is false
// when the block is already resident or its set has a free way. STREX's
// victim block monitoring unit uses this to context-switch *before* a
// current-phase block is lost (Section 4.1: a transaction runs "up to
// the point where it would be forced to evict" a block of the current
// phase).
func (c *Cache) WouldEvict(block uint32) (victimPhase uint8, would bool) {
	return c.WouldEvictAt(c.Lookup(block))
}

// WouldEvictAt is WouldEvict on the slot Lookup found: it peeks the
// victim's phase in that set and changes nothing.
func (c *Cache) WouldEvictAt(s Slot) (victimPhase uint8, would bool) {
	if s.way >= 0 || s.free >= 0 {
		return 0, false
	}
	return uint8(c.meta[c.victimIndex(s)] >> 8), true
}

// PhaseOf returns the phaseID tag of a resident block.
func (c *Cache) PhaseOf(block uint32) (uint8, bool) {
	idx, ok := c.indexOf(block)
	if !ok {
		return 0, false
	}
	return uint8(c.meta[idx] >> 8), true
}

// Invalidate removes block if resident (coherence action). Reports
// whether a line was removed.
func (c *Cache) Invalidate(block uint32) bool {
	idx, ok := c.indexOf(block)
	if !ok {
		return false
	}
	if c.meta[idx]&metaDirty != 0 {
		c.Stats.WriteBacks++
	}
	c.tags[idx] = InvalidBlock
	c.meta[idx] = 0
	c.locClear(block)
	c.freeCount[c.setOf(block)]++
	c.Stats.Invalidations++
	return true
}

// Flush invalidates every line (used between experiment repetitions).
// Location-index pages are zeroed, not released, so a flushed cache
// replays without re-allocating them.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = InvalidBlock
		c.meta[i] = 0
	}
	for _, pg := range c.loc {
		if pg != nil {
			clear(pg)
		}
	}
	for i := range c.freeCount {
		c.freeCount[i] = int32(c.ways)
	}
}

// ResetPhases zeroes every resident line's phaseID tag. Used by the
// hybrid mechanism's profiling mode (Section 5.5: "All phaseID tables are
// reset to zero on all cores").
func (c *Cache) ResetPhases() {
	for i := range c.meta {
		c.meta[i] &= 0x00FF
	}
}

// ForEach invokes fn for every resident block. Iteration order is
// deterministic (set-major). Used to build SLICC cache signatures and the
// Figure 2 overlap analysis.
func (c *Cache) ForEach(fn func(block uint32, phase uint8)) {
	for i, t := range c.tags {
		if t != InvalidBlock {
			fn(t, uint8(c.meta[i]>>8))
		}
	}
}

// Residency returns the number of valid lines.
func (c *Cache) Residency() int {
	n := 0
	for _, t := range c.tags {
		if t != InvalidBlock {
			n++
		}
	}
	return n
}
