package cache

import (
	"testing"
	"testing/quick"
)

func TestWouldEvictNoVictimCases(t *testing.T) {
	c := smallCache(LRU)
	// Empty set: a fill would use a free way.
	if _, would := c.WouldEvict(0); would {
		t.Fatal("empty set reported a victim")
	}
	c.Access(0, false)
	// Resident block: no fill needed.
	if _, would := c.WouldEvict(0); would {
		t.Fatal("resident block reported a victim")
	}
	// One free way left in the set.
	if _, would := c.WouldEvict(4); would {
		t.Fatal("set with a free way reported a victim")
	}
}

func TestWouldEvictReportsVictimPhase(t *testing.T) {
	c := smallCache(LRU)
	c.Touch(0, 3)
	c.Touch(4, 4)
	ph, would := c.WouldEvict(8)
	if !would || ph != 3 {
		t.Fatalf("WouldEvict = %d,%v want 3,true (LRU victim is block 0)", ph, would)
	}
}

// TestWouldEvictPredictionMatchesFill is the load-bearing property for
// STREX's switch-before-evict: for every policy, when WouldEvict
// predicts a victim phase, the immediately following fill must evict a
// block with exactly that phase (no state drift between peek and fill).
// The displaced line is read from the contents, not from Touch's
// result, which reports its victim through the same peek.
func TestWouldEvictPredictionMatchesFill(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		pol := pol
		f := func(seed uint64, blocks []uint16) bool {
			c := New(Config{SizeBytes: 512, BlockBytes: 64, Ways: 2, Policy: pol, Seed: seed})
			phase := uint8(0)
			for _, b16 := range blocks {
				b := uint32(b16) % 64
				phase++
				predictedPhase, would := c.WouldEvict(b)
				before := map[uint32]uint8{}
				c.ForEach(func(blk uint32, ph uint8) { before[blk] = ph })
				r := c.Touch(b, phase)
				if would != r.Evicted {
					// A miss must evict iff predicted (hit can't evict).
					return false
				}
				gone := 0
				for blk, ph := range before {
					if !c.Contains(blk) {
						gone++
						if ph != predictedPhase {
							return false
						}
					}
				}
				if would != (gone == 1) || gone > 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestWouldEvictIsPure(t *testing.T) {
	// Probing must not change the cache: repeated probes agree and the
	// subsequent demand behaviour is unchanged.
	for _, pol := range []PolicyKind{LRU, BIP, SRRIP, BRRIP} {
		c := smallCache(pol)
		for i := uint32(0); i < 32; i++ {
			c.Access(i, false)
		}
		ph1, w1 := c.WouldEvict(100)
		for k := 0; k < 10; k++ {
			ph2, w2 := c.WouldEvict(100)
			if ph1 != ph2 || w1 != w2 {
				t.Fatalf("%v: probe not idempotent", pol)
			}
		}
	}
}
