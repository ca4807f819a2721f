package cache

import (
	"testing"
	"testing/quick"
)

func smallCache(p PolicyKind) *Cache {
	// 4 sets x 2 ways x 64B blocks = 512B
	return New(Config{SizeBytes: 512, BlockBytes: 64, Ways: 2, Policy: p, Seed: 1})
}

func l1Config(p PolicyKind) Config {
	return Config{SizeBytes: 32 << 10, BlockBytes: 64, Ways: 8, Policy: p, Seed: 1}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{SizeBytes: 32 << 10, BlockBytes: 64, Ways: 8}, true},
		{Config{SizeBytes: 0, BlockBytes: 64, Ways: 8}, false},
		{Config{SizeBytes: 100, BlockBytes: 64, Ways: 8}, false},
		{Config{SizeBytes: 64 * 3, BlockBytes: 64, Ways: 2}, false}, // 3 blocks, 2 ways
		{Config{SizeBytes: 512, BlockBytes: 64, Ways: 2}, true},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := New(l1Config(LRU))
	if c.Sets() != 64 || c.Ways() != 8 || c.Blocks() != 512 {
		t.Fatalf("32KB/64B/8w: got %d sets, %d ways, %d blocks", c.Sets(), c.Ways(), c.Blocks())
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(LRU)
	if r := c.Access(7, false); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(7, false); !r.Hit {
		t.Fatal("second access should hit")
	}
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestAccessImpliesContains(t *testing.T) {
	f := func(blocks []uint32) bool {
		c := smallCache(LRU)
		for _, b := range blocks {
			b %= 1 << 20
			c.Access(b, false)
			if !c.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResidencyNeverExceedsCapacity(t *testing.T) {
	for _, p := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		p := p
		f := func(blocks []uint32) bool {
			c := smallCache(p)
			for _, b := range blocks {
				c.Access(b%4096, false)
				if c.Residency() > c.Blocks() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestEvictionOnlyWhenSetFull(t *testing.T) {
	c := smallCache(LRU) // 4 sets, 2 ways
	// blocks 0 and 4 map to set 0
	if r := c.Access(0, false); r.Evicted {
		t.Fatal("no eviction expected on empty set")
	}
	if r := c.Access(4, false); r.Evicted {
		t.Fatal("no eviction expected with a free way")
	}
	r := c.Access(8, false) // third block in set 0: must evict
	if !r.Evicted {
		t.Fatal("expected eviction when set is full")
	}
	if r.VictimBlock != 0 {
		t.Fatalf("LRU victim = %d, want 0", r.VictimBlock)
	}
}

func TestLRUOrder(t *testing.T) {
	c := smallCache(LRU)
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 becomes MRU; 4 is LRU
	r := c.Access(8, false)
	if !r.Evicted || r.VictimBlock != 4 {
		t.Fatalf("victim = %v (%d), want 4", r.Evicted, r.VictimBlock)
	}
	if !c.Contains(0) || c.Contains(4) || !c.Contains(8) {
		t.Fatal("wrong residency after LRU eviction")
	}
}

func TestLIPStreamingDoesNotThrash(t *testing.T) {
	// With LIP, a hot block that gets hits should survive a long
	// streaming sweep through the same set.
	c := New(Config{SizeBytes: 512, BlockBytes: 64, Ways: 2, Policy: LIP, Seed: 1})
	hot := uint32(0)
	c.Access(hot, false)
	c.Access(hot, false) // promote
	for i := uint32(1); i < 100; i++ {
		c.Access(hot, false) // keep hot promoted
		c.Access(i*4, false) // streaming blocks all map to set 0
	}
	if !c.Contains(hot) {
		t.Fatal("LIP evicted the hot block during a stream")
	}
}

func TestPhaseTagging(t *testing.T) {
	c := smallCache(LRU)
	c.Touch(3, 9)
	if ph, ok := c.PhaseOf(3); !ok || ph != 9 {
		t.Fatalf("PhaseOf(3) = %d,%v want 9,true", ph, ok)
	}
	c.Touch(3, 10) // hit must retag
	if ph, _ := c.PhaseOf(3); ph != 10 {
		t.Fatalf("retag failed: phase %d, want 10", ph)
	}
}

func TestVictimPhaseReported(t *testing.T) {
	c := smallCache(LRU)
	c.Touch(0, 5)
	c.Touch(4, 6)
	r := c.Touch(8, 7)
	if !r.Evicted || r.VictimBlock != 0 || r.VictimPhase != 5 {
		t.Fatalf("victim = %+v, want block 0 phase 5", r)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(LRU)
	c.Access(5, true)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate should report removal")
	}
	if c.Contains(5) {
		t.Fatal("block still resident after invalidation")
	}
	if c.Invalidate(5) {
		t.Fatal("double invalidation reported removal")
	}
	if c.Stats.Invalidations != 1 || c.Stats.WriteBacks != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := smallCache(LRU)
	c.Access(0, true)
	c.Access(4, false)
	r := c.Access(8, false)
	if !r.Evicted || !r.VictimDirty {
		t.Fatalf("expected dirty victim, got %+v", r)
	}
	if c.Stats.WriteBacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.WriteBacks)
	}
}

func TestPrefetchFillAndHit(t *testing.T) {
	c := smallCache(LRU)
	c.InsertPrefetch(12)
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d", c.Stats.PrefetchFills)
	}
	if c.Stats.Accesses != 0 {
		t.Fatal("prefetch counted as demand access")
	}
	r := c.Access(12, false)
	if !r.Hit || !r.PrefetchHit {
		t.Fatalf("expected prefetch hit, got %+v", r)
	}
	if c.Stats.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d", c.Stats.PrefetchHits)
	}
	// Second access is a plain hit.
	r = c.Access(12, false)
	if !r.Hit || r.PrefetchHit {
		t.Fatalf("expected plain hit, got %+v", r)
	}
}

func TestPrefetchDuplicateIsNoop(t *testing.T) {
	c := smallCache(LRU)
	c.Access(3, false)
	c.InsertPrefetch(3)
	if c.Stats.PrefetchFills != 0 {
		t.Fatal("prefetch of resident block should be a no-op")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(LRU)
	for i := uint32(0); i < 8; i++ {
		c.Access(i, true)
	}
	c.Flush()
	if c.Residency() != 0 {
		t.Fatalf("residency after flush = %d", c.Residency())
	}
}

func TestResetPhases(t *testing.T) {
	c := smallCache(LRU)
	c.Touch(1, 7)
	c.ResetPhases()
	if ph, ok := c.PhaseOf(1); !ok || ph != 0 {
		t.Fatalf("phase after reset = %d,%v", ph, ok)
	}
}

func TestForEachDeterministic(t *testing.T) {
	c := smallCache(LRU)
	for i := uint32(0); i < 6; i++ {
		c.Access(i, false)
	}
	var a, b []uint32
	c.ForEach(func(blk uint32, _ uint8) { a = append(a, blk) })
	c.ForEach(func(blk uint32, _ uint8) { b = append(b, blk) })
	if len(a) != 6 || len(a) != len(b) {
		t.Fatalf("ForEach visited %d/%d blocks", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ForEach order not deterministic")
		}
	}
}

func TestAllPoliciesBasicCorrectness(t *testing.T) {
	for _, p := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		c := smallCache(p)
		// Fill far beyond capacity; cache must keep working and the most
		// recent block must be resident immediately after access.
		for i := uint32(0); i < 1000; i++ {
			c.Access(i, false)
			if !c.Contains(i) {
				t.Fatalf("%v: block %d absent right after access", p, i)
			}
		}
		if c.Stats.Misses != 1000 {
			t.Fatalf("%v: misses = %d, want 1000 for a pure stream", p, c.Stats.Misses)
		}
	}
}

func TestBRRIPStreamResistance(t *testing.T) {
	// Classic RRIP scenario: a working set that is re-referenced (hot)
	// mixed with a one-shot stream. BRRIP should retain more of the hot
	// set than LRU does.
	run := func(p PolicyKind) uint64 {
		c := New(Config{SizeBytes: 4 << 10, BlockBytes: 64, Ways: 8, Policy: p, Seed: 7})
		hot := make([]uint32, 32)
		for i := range hot {
			hot[i] = uint32(i)
		}
		var stream uint32 = 1000
		for round := 0; round < 200; round++ {
			for _, h := range hot {
				c.Access(h, false)
			}
			for s := 0; s < 64; s++ {
				c.Access(stream, false)
				stream++
			}
		}
		return c.Stats.Misses
	}
	lru := run(LRU)
	brrip := run(BRRIP)
	if brrip >= lru {
		t.Fatalf("BRRIP (%d misses) not better than LRU (%d) on mixed stream", brrip, lru)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, k := range []PolicyKind{LRU, LIP, BIP, SRRIP, BRRIP} {
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Fatalf("ParsePolicy(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParsePolicy("FIFO"); err == nil {
		t.Fatal("ParsePolicy accepted unknown policy")
	}
}

func TestStatsMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle miss rate should be 0")
	}
	s.Accesses, s.Misses = 10, 3
	if got := s.MissRate(); got != 0.3 {
		t.Fatalf("MissRate = %v", got)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(l1Config(LRU))
	c.Access(1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(1, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := New(l1Config(LRU))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i)&0xFFFF, false)
	}
}
