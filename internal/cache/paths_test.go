package cache

import (
	"fmt"
	"slices"
	"testing"

	"strex/internal/xrand"
)

// residentLine is one ForEach item: a resident block and its phase tag.
type residentLine struct {
	block uint32
	phase uint8
}

func residentLines(c *Cache) []residentLine {
	var ls []residentLine
	c.ForEach(func(b uint32, p uint8) { ls = append(ls, residentLine{b, p}) })
	return ls
}

// TestAccessPathsAgree drives one random stream through the three forms
// of a demand access, each on its own twin cache: Lookup plus HitAt or
// MissAt (the multi-core engine's step), the fused AccessBrief (the solo
// loop and the L2) and Access/Touch (the reference engine). Outcomes,
// statistics, free-way counts and contents with phases must agree after
// every operation. Before every miss into a full set, the victim-phase
// peek must match WouldEvict, the victim Touch/Access reports, and the
// line that then leaves the cache.
func TestAccessPathsAgree(t *testing.T) {
	for _, tc := range []struct {
		pol  PolicyKind
		ways int
	}{
		{LRU, 8},  // one-word matrix
		{LRU, 16}, // four-word matrix
		{LIP, 8},
		{BIP, 8},
		{SRRIP, 8},
		{BRRIP, 8},
	} {
		t.Run(fmt.Sprintf("%v/%dway", tc.pol, tc.ways), func(t *testing.T) {
			cfg := Config{SizeBytes: 8 << 10, BlockBytes: 64, Ways: tc.ways, Policy: tc.pol, Seed: 7}
			halves, brief, plain := New(cfg), New(cfg), New(cfg)
			lines := cfg.SizeBytes / cfg.BlockBytes
			// Blocks span three capacities and straddle a page of the
			// reverse index.
			base := uint32(1<<locPageBits - lines)
			rng := xrand.New(uint64(tc.pol)<<8 | uint64(tc.ways))
			prev := residentLines(halves)
			for i := 0; i < 6000; i++ {
				block := base + uint32(rng.Intn(3*lines))
				op := rng.Intn(10)
				switch op {
				case 0:
					halves.InsertPrefetch(block)
					brief.InsertPrefetch(block)
					plain.InsertPrefetch(block)
				case 1:
					h, b, p := halves.Invalidate(block), brief.Invalidate(block), plain.Invalidate(block)
					if h != b || h != p {
						t.Fatalf("op %d: Invalidate(%d) = %v/%v/%v", i, block, h, b, p)
					}
				default:
					write := op == 2
					tag := op >= 7 // a phase touch, as Touch makes
					var pid uint8
					if tag {
						pid = uint8(rng.Intn(4))
					}
					s := halves.Lookup(block)
					var hHit, hPF bool
					peek, full := halves.WouldEvictAt(s)
					if full != (!s.Resident() && s.free < 0) {
						t.Fatalf("op %d: peek reports %v for slot %+v", i, full, s)
					}
					if full {
						wp, ww := plain.WouldEvict(block)
						if wp != peek || !ww {
							t.Fatalf("op %d: peek = %d, WouldEvict = %d,%v", i, peek, wp, ww)
						}
					}
					if s.Resident() {
						hHit, hPF = true, halves.HitAt(s, write, pid, tag)
					} else {
						halves.MissAt(s, block, write, pid)
					}
					bHit, bPF := brief.AccessBrief(block, write, pid, tag)
					var r AccessResult
					if tag {
						r = plain.Touch(block, pid)
					} else {
						r = plain.Access(block, write)
					}
					if hHit != bHit || hHit != r.Hit || hPF != bPF || hPF != r.PrefetchHit {
						t.Fatalf("op %d: block %d: halves %v/%v, brief %v/%v, plain %+v", i, block, hHit, hPF, bHit, bPF, r)
					}
					if r.Evicted != full || full && r.VictimPhase != peek {
						t.Fatalf("op %d: peek %d,%v but Access reports %+v", i, peek, full, r)
					}
					if full {
						checkVictim(t, i, prev, residentLines(halves), peek)
					}
				}
				now := residentLines(halves)
				if b, p := residentLines(brief), residentLines(plain); !slices.Equal(now, b) || !slices.Equal(now, p) {
					t.Fatalf("op %d: contents diverge:\nhalves %v\nbrief  %v\nplain  %v", i, now, b, p)
				}
				if halves.Stats != brief.Stats || halves.Stats != plain.Stats {
					t.Fatalf("op %d: stats diverge:\nhalves %+v\nbrief  %+v\nplain  %+v", i, halves.Stats, brief.Stats, plain.Stats)
				}
				// The free-way counts gate only a scan, so a miscount shows
				// here before it shows in any outcome.
				if !slices.Equal(halves.freeCount, brief.freeCount) || !slices.Equal(halves.freeCount, plain.freeCount) {
					t.Fatalf("op %d: free-way counts diverge:\nhalves %v\nbrief  %v\nplain  %v", i, halves.freeCount, brief.freeCount, plain.freeCount)
				}
				prev = now
			}
			if halves.Stats.PrefetchHits == 0 || halves.Stats.Evictions == 0 || halves.Stats.Invalidations == 0 {
				t.Fatalf("stream too tame: %+v", halves.Stats)
			}
		})
	}
}

// checkVictim requires that exactly one line left the cache between
// before and after, and that it carried the peeked phase.
func checkVictim(t *testing.T, op int, before, after []residentLine, peek uint8) {
	t.Helper()
	still := make(map[uint32]bool, len(after))
	for _, l := range after {
		still[l.block] = true
	}
	var gone []residentLine
	for _, l := range before {
		if !still[l.block] {
			gone = append(gone, l)
		}
	}
	if len(gone) != 1 || gone[0].phase != peek {
		t.Fatalf("op %d: peeked victim phase %d, but the fill displaced %v", op, peek, gone)
	}
}
