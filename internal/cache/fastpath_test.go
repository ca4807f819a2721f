package cache

import (
	"testing"

	"strex/internal/xrand"
)

// The hit-run fast path and the read-only snoop must be observably
// indistinguishable from the general access path: Contains free of side
// effects, AccessHit exactly the hit half of Access/Touch.

func TestProbeHasNoSideEffects(t *testing.T) {
	c := smallCache(LRU)
	if c.Contains(3) {
		t.Fatal("empty cache claims residency")
	}
	if c.Stats.Accesses != 0 || c.Stats.Misses != 0 {
		t.Fatalf("probe touched stats: %+v", c.Stats)
	}
	c.Access(3, false)
	if !c.Contains(3) {
		t.Fatal("probe misses a resident block")
	}
	// Contains must not promote: fill set 0 (blocks 0 and 4 share a set in
	// the 4-set cache), probe the LRU way, then fill — the probed line
	// must still be the victim.
	c = smallCache(LRU)
	c.Access(0, false) // LRU after next access
	c.Access(4, false)
	c.Contains(0) // would promote if it were an access
	r := c.Access(8, false)
	if !r.Evicted || r.VictimBlock != 0 {
		t.Fatalf("probe disturbed replacement state: victim %+v", r)
	}
}

// TestAccessHitMatchesAccess drives two identical caches with the same
// random reference stream: one through the fast-path protocol the
// engine uses (AccessHit, falling back to Touch/Access), one through
// the plain path. Stats, contents and replacement behaviour must match.
func TestAccessHitMatchesAccess(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		fast := smallCache(pol)
		ref := smallCache(pol)
		rng := xrand.New(99)
		for i := 0; i < 4000; i++ {
			block := uint32(rng.Intn(24))
			tag := rng.OneIn(2)
			ph := uint8(rng.Intn(4))
			if !fast.AccessHit(block, ph, tag) {
				if tag {
					fast.Touch(block, ph)
				} else {
					fast.Access(block, false)
				}
			}
			if tag {
				ref.Touch(block, ph)
			} else {
				ref.Access(block, false)
			}
		}
		if fast.Stats != ref.Stats {
			t.Errorf("%v: stats diverged\nfast: %+v\n ref: %+v", pol, fast.Stats, ref.Stats)
		}
		var fastLines, refLines []uint32
		fast.ForEach(func(b uint32, p uint8) { fastLines = append(fastLines, b, uint32(p)) })
		ref.ForEach(func(b uint32, p uint8) { refLines = append(refLines, b, uint32(p)) })
		if len(fastLines) != len(refLines) {
			t.Fatalf("%v: residency diverged", pol)
		}
		for i := range fastLines {
			if fastLines[i] != refLines[i] {
				t.Errorf("%v: line %d diverged: %d vs %d", pol, i/2, fastLines[i], refLines[i])
			}
		}
	}
}

func TestAccessHitRefusesPrefetchedLines(t *testing.T) {
	c := smallCache(LRU)
	c.InsertPrefetch(5)
	if c.AccessHit(5, 0, false) {
		t.Fatal("AccessHit consumed a prefetched line; PrefetchHit credit lost")
	}
	r := c.Access(5, false)
	if !r.Hit || !r.PrefetchHit {
		t.Fatalf("slow path lost the credit: %+v", r)
	}
}

// TestSetMaskMatchesModulo checks the power-of-two bitmask set selection
// against the modulo fallback: a non-power-of-two geometry (6 sets) and
// a power-of-two one (8 sets) must both place every block in
// block % sets, observable through WouldEvict conflicts.
func TestSetMaskMatchesModulo(t *testing.T) {
	for _, sets := range []int{6, 8} {
		c := New(Config{SizeBytes: sets * 2 * 64, BlockBytes: 64, Ways: 2, Policy: LRU, Seed: 1})
		if c.Sets() != sets {
			t.Fatalf("geometry: got %d sets, want %d", c.Sets(), sets)
		}
		// Fill set 1 with its first two residents.
		a := uint32(1)
		b := uint32(1 + sets)
		c.Access(a, false)
		c.Access(b, false)
		if _, would := c.WouldEvict(uint32(1 + 2*sets)); !would {
			t.Errorf("sets=%d: conflicting block does not map to the full set", sets)
		}
		if _, would := c.WouldEvict(uint32(2)); would {
			t.Errorf("sets=%d: non-conflicting block claims a full set", sets)
		}
	}
}

// TestMatrixMatchesStackPolicy drives the O(1) matrix LRU and the
// timestamp LRU with identical random streams and asserts identical
// promotion/victim behaviour — the representations must be
// interchangeable (newStackFamily picks by geometry).
func TestMatrixMatchesStackPolicy(t *testing.T) {
	for _, ways := range []int{2, 4, 8} {
		const sets = 4
		mat := newMatrixPolicy(sets, ways)
		stk := newStackPolicy(sets, ways, insertMRU, nil)
		rng := xrand.New(7)
		// Fill every set so victim() is legal throughout.
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				mat.onInsert(s, w)
				stk.onInsert(s, w)
			}
		}
		for i := 0; i < 20000; i++ {
			s := rng.Intn(sets)
			switch rng.Intn(3) {
			case 0:
				w := rng.Intn(ways)
				mat.onHit(s, w)
				stk.onHit(s, w)
			case 1:
				mv, sv := mat.victim(s), stk.victim(s)
				if mv != sv {
					t.Fatalf("ways=%d step %d: victim diverged: matrix %d, stamps %d", ways, i, mv, sv)
				}
				mat.onInsert(s, mv)
				stk.onInsert(s, sv)
			case 2:
				if mv, sv := mat.peekVictim(s), stk.peekVictim(s); mv != sv {
					t.Fatalf("ways=%d step %d: peekVictim diverged: matrix %d, stamps %d", ways, i, mv, sv)
				}
			}
		}
	}
}

// TestMatrix16MatchesStackPolicy: same differential gate for the
// 16-way (four-word) matrix form the L2 uses.
func TestMatrix16MatchesStackPolicy(t *testing.T) {
	for _, ways := range []int{12, 16} {
		const sets = 4
		mat := newMatrix16Policy(sets, ways)
		stk := newStackPolicy(sets, ways, insertMRU, nil)
		rng := xrand.New(11)
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				mat.onInsert(s, w)
				stk.onInsert(s, w)
			}
		}
		for i := 0; i < 40000; i++ {
			s := rng.Intn(sets)
			switch rng.Intn(3) {
			case 0:
				w := rng.Intn(ways)
				mat.onHit(s, w)
				stk.onHit(s, w)
			case 1:
				mv, sv := mat.victim(s), stk.victim(s)
				if mv != sv {
					t.Fatalf("ways=%d step %d: victim diverged: matrix %d, stamps %d", ways, i, mv, sv)
				}
				mat.onInsert(s, mv)
				stk.onInsert(s, sv)
			case 2:
				if mv, sv := mat.peekVictim(s), stk.peekVictim(s); mv != sv {
					t.Fatalf("ways=%d step %d: peekVictim diverged: matrix %d, stamps %d", ways, i, mv, sv)
				}
			}
		}
	}
}
