package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (the rule every latency in this benchmark follows: a percentile with
// fewer samples above it is a guess about the tail, not a measurement).
const minBeyond = 10

// Percentile is one nearest-rank percentile of a sample, with the
// sample count and the number of samples strictly beyond its rank.
type Percentile struct {
	P      float64 // requested percentile, 0 < P < 100
	Value  float64 // the sample at nearest rank ceil(P/100 * N)
	N      int     // sample count
	Beyond int     // N - rank
}

// Reportable reports whether the percentile has at least minBeyond
// samples beyond it.
func (p Percentile) Reportable() bool { return p.Beyond >= minBeyond }

// percentileOf returns the nearest-rank percentile p of xs. Nearest
// rank returns an observed sample, never an interpolation between two.
// xs must be non-empty; it is not modified.
func percentileOf(xs []float64, p float64) Percentile {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return Percentile{P: p, Value: s[rank-1], N: len(s), Beyond: len(s) - rank}
}

// highestReportable returns the highest of the candidate percentiles
// that keeps at least minBeyond samples beyond it, and false when even
// the lowest candidate does not.
func highestReportable(xs []float64, candidates []float64) (Percentile, bool) {
	best, ok := Percentile{}, false
	for _, p := range candidates {
		if pc := percentileOf(xs, p); pc.Reportable() && (!ok || p > best.P) {
			best, ok = pc, true
		}
	}
	return best, ok
}

// unitMedians returns each unit's median time over the passes.
// perPass[p][u] is unit u's time in pass p, and every pass must time
// the same units.
func unitMedians(perPass [][]float64) ([]float64, error) {
	if len(perPass) == 0 || len(perPass[0]) == 0 {
		return nil, fmt.Errorf("no timed units")
	}
	n := len(perPass[0])
	out := make([]float64, n)
	col := make([]float64, len(perPass))
	for u := 0; u < n; u++ {
		for p, xs := range perPass {
			if len(xs) != n {
				return nil, fmt.Errorf("pass %d timed %d units, pass 0 timed %d", p, len(xs), n)
			}
			col[p] = xs[u]
		}
		out[u] = median(col)
	}
	return out, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs into four equal groups
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the rule the spread report shares with anyone checking it by hand.
// xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// geomeanRatio returns the geometric mean of num[i]/den[i]. Identical
// inputs give exactly 1. Every value must be positive and finite, and
// the slices equally long and non-empty.
func geomeanRatio(num, den []float64) (float64, error) {
	if len(num) == 0 || len(num) != len(den) {
		return 0, fmt.Errorf("geomean ratio needs equal non-empty inputs, got %d and %d", len(num), len(den))
	}
	var sum float64
	for i := range num {
		if !(num[i] > 0) || !(den[i] > 0) || math.IsInf(num[i], 0) || math.IsInf(den[i], 0) {
			return 0, fmt.Errorf("geomean ratio pair %d is %v/%v; values must be positive and finite", i, num[i], den[i])
		}
		sum += math.Log(num[i] / den[i])
	}
	return math.Exp(sum / float64(len(num))), nil
}

// validName reports whether s is a legal metric or workload name: 1 to
// 64 characters from [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}
