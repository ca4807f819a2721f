package memsys

import (
	"testing"

	"strex/internal/cache"
)

func newH(cores int) *Hierarchy {
	cfg := DefaultConfig(cores)
	cfg.L2SliceKB = 64 // keep tests fast
	h := New(cfg)
	for c := 0; c < cores; c++ {
		l1 := cache.New(cache.Config{SizeBytes: 4 << 10, BlockBytes: 64, Ways: 8, Policy: cache.LRU, Seed: uint64(c)})
		h.AttachL1D(c, l1)
	}
	return h
}

func (h *Hierarchy) l1(c int) *cache.Cache { return h.l1ds[c] }

func TestTorusDims(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4}, 6: {2, 3}}
	for n, want := range cases {
		if got := torusDims(n); got != want {
			t.Errorf("torusDims(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestHopDistanceWraparound(t *testing.T) {
	h := New(DefaultConfig(16)) // 4x4 torus
	if d := h.hopDistance(0, 0); d != 0 {
		t.Fatalf("self distance %d", d)
	}
	// core 0 is (0,0); core 3 is (3,0): torus wraps so distance is 1.
	if d := h.hopDistance(0, 3); d != 1 {
		t.Fatalf("wrap distance = %d, want 1", d)
	}
	// core 0 (0,0) to core 10 (2,2): 2+2 but wrap makes each 2; total 4.
	if d := h.hopDistance(0, 10); d != 4 {
		t.Fatalf("distance(0,10) = %d, want 4", d)
	}
	// symmetry
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if h.hopDistance(a, b) != h.hopDistance(b, a) {
				t.Fatalf("asymmetric distance %d,%d", a, b)
			}
		}
	}
}

func TestFetchMissThenHitLatency(t *testing.T) {
	h := newH(2)
	first := h.FetchI(0, 100)
	second := h.FetchI(0, 100)
	if first <= second {
		t.Fatalf("memory miss (%d) should cost more than L2 hit (%d)", first, second)
	}
	if h.Stats.L2Misses != 1 || h.Stats.L2Hits != 1 {
		t.Fatalf("stats: %+v", h.Stats)
	}
}

func TestNUCADistanceMatters(t *testing.T) {
	h := newH(16)
	// Warm the block so both fetches are L2 hits.
	h.FetchI(0, 16) // block 16 -> slice 0
	near := h.FetchI(0, 16)
	far := h.FetchI(10, 16) // distance 4
	if far <= near {
		t.Fatalf("far slice fetch (%d) should cost more than near (%d)", far, near)
	}
}

func TestWriteInvalidatesRemoteCopies(t *testing.T) {
	h := newH(4)
	blk := uint32(42)
	// Cores 1..3 read the block into their L1-Ds.
	for c := 1; c < 4; c++ {
		h.l1(c).Access(blk, false)
		h.FetchD(c, blk, false)
	}
	// Core 0 writes: all remote copies must die.
	h.l1(0).Access(blk, true)
	lat := h.FetchD(0, blk, true)
	if lat == 0 {
		t.Fatal("write with remote sharers should pay coherence latency")
	}
	for c := 1; c < 4; c++ {
		if h.l1(c).Contains(blk) {
			t.Fatalf("core %d still holds block after remote write", c)
		}
	}
	if h.Stats.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", h.Stats.Invalidations)
	}
}

func TestWriteHitUpgrades(t *testing.T) {
	h := newH(2)
	blk := uint32(7)
	h.l1(0).Access(blk, false)
	h.FetchD(0, blk, false)
	h.l1(1).Access(blk, false)
	h.FetchD(1, blk, false)
	// Core 0 store hits locally but must invalidate core 1.
	lat := h.WriteHit(0, blk)
	if lat == 0 {
		t.Fatal("upgrade with a sharer should cost coherence latency")
	}
	if h.l1(1).Contains(blk) {
		t.Fatal("sharer survived upgrade")
	}
	// Second store: exclusive now, free.
	if lat := h.WriteHit(0, blk); lat != 0 {
		t.Fatalf("exclusive upgrade cost %d, want 0", lat)
	}
}

func TestDirectoryConservativeAfterEviction(t *testing.T) {
	// Even if a core silently evicts, a later write just finds no line to
	// invalidate; nothing breaks.
	h := newH(2)
	blk := uint32(9)
	h.l1(1).Access(blk, false)
	h.FetchD(1, blk, false)
	h.l1(1).Invalidate(blk) // silent local drop
	before := h.Stats.Invalidations
	h.FetchD(0, blk, true)
	if h.Stats.Invalidations != before {
		t.Fatal("counted an invalidation for an absent line")
	}
}

func TestReadHitTracksSharer(t *testing.T) {
	h := newH(2)
	blk := uint32(11)
	h.l1(1).Access(blk, false)
	h.ReadHit(1, blk)
	h.l1(0).Access(blk, true)
	h.FetchD(0, blk, true)
	if h.l1(1).Contains(blk) {
		t.Fatal("ReadHit-tracked sharer not invalidated")
	}
}

func TestDefaultLatenciesSane(t *testing.T) {
	l := DefaultLatencies()
	if !(l.L1Hit < l.L2Hit && l.L2Hit < l.Mem) {
		t.Fatalf("latency ordering broken: %+v", l)
	}
	if l.SwitchCost <= 0 || l.MigrateCost < l.SwitchCost {
		t.Fatalf("switch/migrate costs: %+v", l)
	}
}

func TestSliceInterleaving(t *testing.T) {
	h := newH(4)
	seen := map[int]bool{}
	for b := uint32(0); b < 16; b++ {
		seen[h.sliceOf(b)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("blocks map to %d slices, want 4", len(seen))
	}
}

// TestMaxCores: a presence mask has one bit per core, so 64 cores is the
// limit. At 64 the last core's copy is invalidated like any other; 65
// cores must be refused, or core 64's bit would shift out to zero.
func TestMaxCores(t *testing.T) {
	h := newH(MaxCores)
	blk := uint32(42)
	last := MaxCores - 1
	h.l1(last).Access(blk, false)
	h.FetchD(last, blk, false)
	h.l1(0).Access(blk, true)
	h.FetchD(0, blk, true)
	if h.l1(last).Contains(blk) {
		t.Fatalf("core %d still holds the block after core 0 wrote it", last)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted %d cores", MaxCores+1)
		}
	}()
	newH(MaxCores + 1)
}
