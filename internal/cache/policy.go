package cache

import (
	"fmt"
	"math/bits"

	"strex/internal/xrand"
)

// PolicyKind selects a replacement policy (paper Section 5.7 / Figure 9).
type PolicyKind int

const (
	// LRU evicts the least-recently-used line.
	LRU PolicyKind = iota
	// LIP (LRU Insertion Policy, Qureshi et al.) inserts new lines in
	// the LRU position so streaming blocks leave quickly.
	LIP
	// BIP (Bimodal Insertion Policy) inserts at MRU with small
	// probability epsilon (1/32), otherwise at LRU.
	BIP
	// SRRIP (Static Re-Reference Interval Prediction, Jaleel et al.)
	// uses 2-bit RRPVs, inserting with RRPV=2 and promoting to 0 on hit.
	SRRIP
	// BRRIP (Bimodal RRIP) inserts with RRPV=3 most of the time and
	// RRPV=2 with probability 1/32.
	BRRIP
)

// String returns the canonical policy name.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case LIP:
		return "LIP"
	case BIP:
		return "BIP"
	case SRRIP:
		return "SRRIP"
	case BRRIP:
		return "BRRIP"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// ParsePolicy converts a policy name to its PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	for _, k := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// policy is the internal replacement-state interface. The cache informs
// the policy of hits and fills; the policy picks victims among valid
// lines of a full set. peekVictim predicts the next victim without
// mutating policy state (RRIP's victim search ages lines; the peek
// simulates that aging).
type policy interface {
	onHit(set, way int)
	onInsert(set, way int)
	victim(set int) int
	peekVictim(set int) int
	// reset returns the policy to its as-constructed state in place
	// (engine pooling reuses caches across runs), reseeding any bimodal
	// dice from seed.
	reset(seed uint64)
}

func newPolicy(kind PolicyKind, sets, ways int, rng *xrand.RNG) policy {
	switch kind {
	case LRU:
		return newStackFamily(sets, ways, insertMRU, nil)
	case LIP:
		return newStackFamily(sets, ways, insertLRU, nil)
	case BIP:
		return newStackFamily(sets, ways, insertBimodal, rng)
	case SRRIP:
		return newRRIP(sets, ways, false, nil)
	case BRRIP:
		return newRRIP(sets, ways, true, rng)
	default:
		panic(fmt.Sprintf("cache: bad policy kind %d", int(kind)))
	}
}

// newStackFamily picks the representation for the recency-stack
// policies. Pure LRU uses the O(1) matrix forms: one word per set up to
// 8 ways (every L1 the simulator builds), four words per set up to 16
// ways (the shared L2). Matrix and timestamp forms encode the same
// strict total order and make identical victim choices
// (TestMatrixMatchesStackPolicy / TestMatrix16MatchesStackPolicy
// enforce it differentially). LIP/BIP stay on the timestamp form at
// any associativity: their insert-at-LRU saturates the stamp floor at
// zero, deliberately losing the relative order of successive LRU
// inserts (ties broken by way index) — a frozen behaviour the tie-free
// matrix cannot reproduce.
func newStackFamily(sets, ways int, mode insertMode, rng *xrand.RNG) policy {
	if mode == insertMRU {
		if ways <= 8 {
			return newMatrixPolicy(sets, ways)
		}
		if ways <= 16 {
			return newMatrix16Policy(sets, ways)
		}
	}
	return newStackPolicy(sets, ways, mode, rng)
}

// --- recency-stack policies (LRU / LIP / BIP) ---

type insertMode int

const (
	insertMRU insertMode = iota
	insertLRU
	insertBimodal
)

// stackPolicy tracks per-line logical timestamps. Higher stamp = more
// recently promoted. The victim is the valid line with the lowest stamp.
type stackPolicy struct {
	ways  int
	stamp []uint64
	clock uint64
	mode  insertMode
	rng   *xrand.RNG
	// lowWater tracks, per set, a stamp strictly below every current
	// member so LIP/BIP can insert "at LRU".
	lowWater []uint64
}

func newStackPolicy(sets, ways int, mode insertMode, rng *xrand.RNG) *stackPolicy {
	return &stackPolicy{
		ways:     ways,
		stamp:    make([]uint64, sets*ways),
		mode:     mode,
		rng:      rng,
		lowWater: make([]uint64, sets),
		clock:    1,
	}
}

func (p *stackPolicy) onHit(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *stackPolicy) onInsert(set, way int) {
	idx := set*p.ways + way
	switch p.mode {
	case insertMRU:
		p.clock++
		p.stamp[idx] = p.clock
	case insertLRU:
		p.insertAtLRU(set, idx)
	case insertBimodal:
		if p.rng.OneIn(32) {
			p.clock++
			p.stamp[idx] = p.clock
		} else {
			p.insertAtLRU(set, idx)
		}
	}
}

func (p *stackPolicy) insertAtLRU(set, idx int) {
	// Give the line a stamp lower than every other line in the set so it
	// is next to leave unless promoted by a hit.
	min := p.minStamp(set)
	if min == 0 {
		min = 1
	}
	p.stamp[idx] = min - 1
}

func (p *stackPolicy) minStamp(set int) uint64 {
	base := set * p.ways
	min := ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			min = s
		}
	}
	return min
}

func (p *stackPolicy) victim(set int) int {
	base := set * p.ways
	best, bestStamp := 0, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < bestStamp {
			bestStamp = s
			best = w
		}
	}
	return best
}

// peekVictim is identical to victim: stack-policy selection is pure.
func (p *stackPolicy) peekVictim(set int) int { return p.victim(set) }

func (p *stackPolicy) reset(seed uint64) {
	clear(p.stamp)
	clear(p.lowWater)
	p.clock = 1
	if p.rng != nil {
		p.rng.Reseed(seed)
	}
}

// --- matrix form of the recency-stack policies (ways ≤ 8) ---

// matrixPolicy packs a set's full recency order into one uint64 as the
// classic upper-triangular LRU matrix: bit (i,j) = 1 iff way i was used
// more recently than way j. Promotions are two mask operations on one
// word and the victim is the way whose row is all zero, so the hot path
// loads 8 bytes per set where the timestamp form loads 64. Victim
// choice is identical to stackPolicy's lowest-stamp scan: both read the
// same total order, and ties cannot arise (every update strictly orders
// the touched way against all others).
type matrixPolicy struct {
	ways    int
	rowBits uint64   // (1<<ways)-1: row bits for the ways that exist
	m       []uint64 // one 8x8 recency matrix per set
}

func newMatrixPolicy(sets, ways int) *matrixPolicy {
	if ways > 8 {
		panic("cache: matrixPolicy needs ways <= 8")
	}
	return &matrixPolicy{ways: ways, rowBits: 1<<uint(ways) - 1, m: make([]uint64, sets)}
}

// matrixCol is the column mask template: bit (i, 0) for every row i.
// matrixColHi is its high-bit counterpart, used by the victim scan.
const (
	matrixCol   = uint64(0x0101010101010101)
	matrixColHi = uint64(0x8080808080808080)
)

func (p *matrixPolicy) promote(set, way int) {
	// way becomes more recent than everyone: fill its row (existing
	// ways only), then clear its column (nobody is more recent than
	// way; this also clears the self bit the row fill set).
	p.m[set] = (p.m[set] | p.rowBits<<(8*uint(way))) &^ (matrixCol << uint(way))
}

func (p *matrixPolicy) onHit(set, way int) { p.promote(set, way) }

// onInsert is MRU insertion — the only mode routed here (LRU proper).
func (p *matrixPolicy) onInsert(set, way int) { p.promote(set, way) }

func (p *matrixPolicy) victim(set int) int {
	// The victim is the way whose row (one byte) is all zero. The SWAR
	// borrow trick flags zero bytes; bytes below the first zero byte are
	// never flagged, so the lowest flag is exactly the ascending scan's
	// answer. Rows past p.ways are always zero but sit above any real
	// row's flag, and the guard preserves the scan's fallback for the
	// unreachable not-full case.
	m := p.m[set]
	z := (m - matrixCol) & ^m & matrixColHi
	if w := bits.TrailingZeros64(z) >> 3; w < p.ways {
		return w
	}
	return 0 // unreachable once the set is full (a total order exists)
}

// peekVictim is identical to victim: matrix selection is pure.
func (p *matrixPolicy) peekVictim(set int) int { return p.victim(set) }

func (p *matrixPolicy) reset(uint64) { clear(p.m) }

// matrix16Policy is the 16-way form of the LRU matrix (the shared L2):
// a 16x16 recency matrix per set packed into four uint64 words, four
// 16-bit rows per word. A promotion is one row fill plus a column-bit
// clear across the four words — 32 bytes of state per set against the
// 128 bytes of timestamps it replaces, which matters because the
// simulated L2 is consulted on every L1 miss and its policy state is
// far larger than the host's own caches.
type matrix16Policy struct {
	ways    int
	rowBits uint64   // (1<<ways)-1 within a 16-bit row
	m       []uint64 // 4 words per set, row-major (rows 4i..4i+3 in word i)
}

func newMatrix16Policy(sets, ways int) *matrix16Policy {
	if ways > 16 {
		panic("cache: matrix16Policy needs ways <= 16")
	}
	return &matrix16Policy{ways: ways, rowBits: 1<<uint(ways) - 1, m: make([]uint64, sets*4)}
}

// col16 is the 16-way column mask template: bit (row, 0) for the four
// rows packed in one word. col16Hi is its high-bit counterpart, used
// by the victim scan.
const (
	col16   = uint64(0x0001000100010001)
	col16Hi = uint64(0x8000800080008000)
)

func (p *matrix16Policy) promote(set, way int) {
	// One bounds check for the whole 4-word update.
	m := (*[4]uint64)(p.m[set*4:])
	col := col16 << uint(way)
	// Clear way's column bit in all 16 rows: nobody is more recent
	// than way (this includes the self bit).
	m[0] &^= col
	m[1] &^= col
	m[2] &^= col
	m[3] &^= col
	// Fill way's row except the self bit: way is more recent than
	// every other way.
	shift := 16 * uint(way&3)
	self := uint64(1) << (shift + uint(way))
	m[way>>2] |= p.rowBits << shift &^ self
}

func (p *matrix16Policy) onHit(set, way int) { p.promote(set, way) }

// onInsert is MRU insertion — the only mode routed here (LRU proper).
func (p *matrix16Policy) onInsert(set, way int) { p.promote(set, way) }

func (p *matrix16Policy) victim(set int) int {
	// Same SWAR zero-row scan as matrixPolicy.victim, on 16-bit rows
	// four to a word: the lowest flagged row in the lowest word with a
	// flag matches the ascending scan's answer exactly.
	base := set * 4
	for i := 0; i < 4; i++ {
		x := p.m[base+i]
		if z := (x - col16) & ^x & col16Hi; z != 0 {
			if w := i*4 + bits.TrailingZeros64(z)>>4; w < p.ways {
				return w
			}
			break
		}
	}
	return 0 // unreachable once the set is full (a total order exists)
}

// peekVictim is identical to victim: matrix selection is pure.
func (p *matrix16Policy) peekVictim(set int) int { return p.victim(set) }

func (p *matrix16Policy) reset(uint64) { clear(p.m) }

// --- RRIP policies (SRRIP / BRRIP) ---

const rripMax = 3 // 2-bit RRPV

type rrip struct {
	ways    int
	rrpv    []uint8
	bimodal bool
	rng     *xrand.RNG
}

func newRRIP(sets, ways int, bimodal bool, rng *xrand.RNG) *rrip {
	r := &rrip{ways: ways, rrpv: make([]uint8, sets*ways), bimodal: bimodal, rng: rng}
	for i := range r.rrpv {
		r.rrpv[i] = rripMax
	}
	return r
}

func (r *rrip) onHit(set, way int) {
	r.rrpv[set*r.ways+way] = 0 // hit promotion: near-immediate re-reference
}

func (r *rrip) onInsert(set, way int) {
	idx := set*r.ways + way
	if r.bimodal {
		if r.rng.OneIn(32) {
			r.rrpv[idx] = rripMax - 1
		} else {
			r.rrpv[idx] = rripMax
		}
		return
	}
	r.rrpv[idx] = rripMax - 1 // SRRIP: long re-reference interval
}

func (r *rrip) victim(set int) int {
	base := set * r.ways
	for {
		for w := 0; w < r.ways; w++ {
			if r.rrpv[base+w] == rripMax {
				return w
			}
		}
		for w := 0; w < r.ways; w++ {
			r.rrpv[base+w]++
		}
	}
}

// peekVictim predicts the victim without aging: RRIP's search increments
// all RRPVs until one reaches the maximum, so the victim is the first
// way holding the set's maximum RRPV.
func (r *rrip) peekVictim(set int) int {
	base := set * r.ways
	maxV, way := uint8(0), 0
	for w := 0; w < r.ways; w++ {
		if r.rrpv[base+w] > maxV {
			maxV = r.rrpv[base+w]
			way = w
		}
	}
	return way
}

func (r *rrip) reset(seed uint64) {
	for i := range r.rrpv {
		r.rrpv[i] = rripMax
	}
	if r.rng != nil {
		r.rng.Reseed(seed)
	}
}
