package experiments

import (
	"reflect"
	"testing"
)

// TestFigure6HybridIsDedupDerived: a Figure 6 hybrid replicate runs as
// the mechanism the hybrid picks for its own trace draw, under that
// mechanism's identity, so the executor serves it from the row's STREX
// or SLICC run: no hybrid replicate simulates, and each one's result is
// the picked column's, bit for bit. MapReduce's sub-unit footprint
// makes the hybrid pick SLICC; the OLTP workloads make it pick STREX.
func TestFigure6HybridIsDedupDerived(t *testing.T) {
	const slicc, strex, hybrid = 3, 4, 5 // fig6Cell.reps indices
	for _, seeds := range []int{1, 2} {
		s := NewSuite(Options{Txns: 16, Seed: 7, Cores: []int{2}, Parallel: 2, Seeds: seeds})
		picked := map[int]int{}
		for _, c := range s.figure6Cells() {
			h := c.reps[hybrid]
			for rep := 0; rep < seeds; rep++ {
				if h.batch.ExecutedRep(rep) {
					t.Errorf("seeds=%d %s %dc: hybrid replicate %d simulated", seeds, c.wl, c.cores, rep)
				}
				got := h.batch.Rep(rep).Stats
				switch {
				case reflect.DeepEqual(got, c.reps[strex].batch.Rep(rep).Stats):
					picked[strex]++
				case reflect.DeepEqual(got, c.reps[slicc].batch.Rep(rep).Stats):
					picked[slicc]++
				default:
					t.Errorf("seeds=%d %s %dc: hybrid replicate %d matches neither STREX nor SLICC", seeds, c.wl, c.cores, rep)
				}
			}
		}
		if picked[strex] == 0 || picked[slicc] == 0 {
			t.Errorf("seeds=%d: hybrid picked STREX %d times and SLICC %d times, want both", seeds, picked[strex], picked[slicc])
		}
	}
}
