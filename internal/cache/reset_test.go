package cache

import (
	"testing"

	"strex/internal/xrand"
)

// accessSeq drives a deterministic pseudo-random mixed sequence and
// returns a fingerprint of every observable output.
func accessSeq(c *Cache, seed uint64, n int) uint64 {
	rng := xrand.New(seed)
	var fp uint64
	for i := 0; i < n; i++ {
		block := uint32(rng.Intn(256))
		switch rng.Intn(5) {
		case 0:
			r := c.Access(block, rng.Bool(0.3))
			fp = xrand.Hash64(fp ^ uint64(r.VictimBlock))
			if r.Hit {
				fp ^= 1
			}
		case 1:
			if c.AccessHit(block, uint8(i), i%3 == 0) {
				fp = xrand.Hash64(fp ^ uint64(block))
			}
		case 2:
			if ph, would := c.WouldEvict(block); would {
				fp = xrand.Hash64(fp ^ uint64(ph))
			}
		case 3:
			if c.Invalidate(block) {
				fp ^= uint64(block) << 13
			}
		case 4:
			r := c.Touch(block, uint8(rng.Intn(8)))
			fp = xrand.Hash64(fp ^ uint64(r.VictimBlock))
		}
	}
	fp ^= c.Stats.Accesses<<1 ^ c.Stats.Hits<<2 ^ c.Stats.Misses<<3 ^
		c.Stats.Evictions<<4 ^ c.Stats.WriteBacks<<5 ^ c.Stats.Invalidations<<6
	return fp
}

// TestResetMatchesFresh checks the pooling contract: a used cache after
// Reset(seed) is observationally identical to New with that seed.
func TestResetMatchesFresh(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		cfg := Config{SizeBytes: 4096, BlockBytes: 64, Ways: 4, Policy: pol, Seed: 7}
		reused := New(cfg)
		accessSeq(reused, 99, 4000) // dirty it under a different stream
		reused.Reset(41)

		fresh := New(Config{SizeBytes: 4096, BlockBytes: 64, Ways: 4, Policy: pol, Seed: 41})
		fpA := accessSeq(fresh, 5, 6000)
		fpB := accessSeq(reused, 5, 6000)
		if fpA != fpB {
			t.Errorf("%v: reset cache diverged from fresh (fp %x vs %x)", pol, fpB, fpA)
		}
		if fresh.Stats != reused.Stats {
			t.Errorf("%v: stats diverged: fresh %+v reset %+v", pol, fresh.Stats, reused.Stats)
		}
	}
}

// TestLocIndexConsistency cross-checks Lookup's reverse index against
// the tag array through a long mixed sequence.
func TestLocIndexConsistency(t *testing.T) {
	c := New(Config{SizeBytes: 2048, BlockBytes: 64, Ways: 4, Policy: LRU, Seed: 3})
	rng := xrand.New(11)
	check := func() {
		free := make([]int32, c.Sets())
		for i, tag := range c.tags {
			set := i / c.Ways()
			if tag == InvalidBlock {
				free[set]++
				continue
			}
			want := i % c.Ways()
			if s := c.Lookup(tag); s.set != set || s.way != want {
				t.Fatalf("Lookup(%d) = (%d,%d), tags say (%d,%d)", tag, s.set, s.way, set, want)
			}
		}
		for s, n := range free {
			if c.freeCount[s] != n {
				t.Fatalf("freeCount[%d] = %d, tags say %d", s, c.freeCount[s], n)
			}
		}
	}
	for i := 0; i < 3000; i++ {
		block := uint32(rng.Intn(128))
		switch rng.Intn(4) {
		case 0, 1:
			c.Access(block, rng.Bool(0.2))
		case 2:
			c.Invalidate(block)
		case 3:
			c.InsertPrefetch(block)
		}
		if i%251 == 0 {
			check()
		}
		if i == 1500 {
			c.Flush()
			check()
		}
	}
	check()
	// Absent blocks must not be found.
	if c.Contains(InvalidBlock - 1) {
		t.Fatal("never-inserted block reported resident")
	}
}
