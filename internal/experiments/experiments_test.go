package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The test suite runs the drivers at reduced scale; the shape checks are
// the same ones EXPERIMENTS.md records at full scale.
func smallSuite() *Suite {
	return NewSuite(Options{Txns: 36, Seed: 42, Cores: []int{2, 4}})
}

func TestFigure2OverlapClaims(t *testing.T) {
	s := smallSuite()
	set := s.TypedSet("TPC-C-1", "NewOrder", 16)
	series := OverlapSeries(set, 32, 100)
	if len(series) < 10 {
		t.Fatalf("only %d intervals measured", len(series))
	}
	sum := Summarize(series)
	// Paper: >70% of blocks in ≥5 caches; <10% single. Allow slack at
	// our reduced scale but require the qualitative shape.
	if sum.AtLeast5 < 0.55 {
		t.Fatalf("mean fraction in >=5 caches = %.2f; paper says >0.70", sum.AtLeast5)
	}
	if sum.Single > 0.20 {
		t.Fatalf("single-cache fraction = %.2f; paper says <0.10", sum.Single)
	}
	if sum.AtLeast10 < 0.25 {
		t.Fatalf("fraction in >=10 caches = %.2f; paper says >0.40 most of the time", sum.AtLeast10)
	}
}

func TestFigure2TableRenders(t *testing.T) {
	tab := smallSuite().Figure2()
	if len(tab.Rows) == 0 || len(tab.Notes) != 2 {
		t.Fatalf("rows=%d notes=%d", len(tab.Rows), len(tab.Notes))
	}
}

func TestFigure4EveryTypeImproves(t *testing.T) {
	tab := smallSuite().Figure4()
	if len(tab.Rows) != 12 { // 5 TPC-C + 7 TPC-E types
		t.Fatalf("%d rows, want 12", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		base, err1 := strconv.ParseFloat(row[2], 64)
		ctx, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if ctx >= base {
			t.Errorf("%s/%s: CTX-Identical %.2f not below baseline %.2f", row[0], row[1], ctx, base)
		}
		if base > 0 && ctx/base > 0.6 {
			t.Errorf("%s/%s: reduction only to %.0f%%; identical txns should cut misses hard",
				row[0], row[1], ctx/base*100)
		}
	}
}

func TestFigure5ShapeClaims(t *testing.T) {
	s := smallSuite()
	tab := s.Figure5()
	// Index rows: workload -> cores -> sched -> IMPKI.
	impki := map[string]map[string]map[string]float64{}
	dmpki := map[string]map[string]map[string]float64{}
	for _, row := range tab.Rows {
		wl, cores, sc := row[0], row[1], row[2]
		iv, _ := strconv.ParseFloat(row[3], 64)
		dv, _ := strconv.ParseFloat(row[4], 64)
		if impki[wl] == nil {
			impki[wl] = map[string]map[string]float64{}
			dmpki[wl] = map[string]map[string]float64{}
		}
		if impki[wl][cores] == nil {
			impki[wl][cores] = map[string]float64{}
			dmpki[wl][cores] = map[string]float64{}
		}
		impki[wl][cores][sc] = iv
		dmpki[wl][cores][sc] = dv
	}
	for _, wl := range []string{"TPC-C-1", "TPC-C-10", "TPC-E"} {
		for _, cores := range []string{"2", "4"} {
			b, x := impki[wl][cores]["Base"], impki[wl][cores]["STREX"]
			if x >= b {
				t.Errorf("%s %s cores: STREX I-MPKI %.2f !< base %.2f", wl, cores, x, b)
			}
		}
	}
	// MapReduce: STREX within noise of base.
	for _, cores := range []string{"2", "4"} {
		b, x := impki["MapReduce"][cores]["Base"], impki["MapReduce"][cores]["STREX"]
		if diff := x - b; diff > 0.5 || diff < -0.5 {
			t.Errorf("MapReduce %s cores: STREX I-MPKI %.3f vs base %.3f", cores, x, b)
		}
	}
}

func TestFigure6ShapeClaims(t *testing.T) {
	s := smallSuite()
	tab := s.Figure6()
	col := map[string]int{}
	for i, h := range tab.Header {
		col[h] = i
	}
	get := func(row []string, name string) float64 {
		v, _ := strconv.ParseFloat(row[col[name]], 64)
		return v
	}
	for _, row := range tab.Rows {
		wl := row[0]
		if wl == "MapReduce" {
			continue
		}
		base := get(row, "Base")
		strex := get(row, "STREX")
		if strex <= base {
			t.Errorf("%s cores=%s: STREX (%.2f) must beat Base (%.2f)", wl, row[1], strex, base)
		}
		hybrid := get(row, "STREX+SLICC")
		slicc := get(row, "SLICC")
		best := strex
		if slicc > best {
			best = slicc
		}
		if hybrid < best*0.85 {
			t.Errorf("%s cores=%s: hybrid %.2f far below best of STREX/SLICC %.2f", wl, row[1], hybrid, best)
		}
	}
}

func TestFigure7ServiceLatencyGrowsWithTeamSize(t *testing.T) {
	s := NewSuite(Options{Txns: 40, Seed: 42, Cores: []int{2}})
	tab := s.Figure7()
	var t2, t20 float64
	for _, row := range tab.Rows {
		service, _ := strconv.ParseFloat(row[2], 64)
		switch row[0] {
		case "STREX-2T":
			t2 = service
		case "STREX-20T":
			t20 = service
		}
	}
	if t20 <= t2 {
		t.Fatalf("service latency: 20T (%.2f) should exceed 2T (%.2f)", t20, t2)
	}
}

func TestFigure8ThroughputGrowsWithTeamSize(t *testing.T) {
	s := NewSuite(Options{Txns: 40, Seed: 42, Cores: []int{2}})
	tab := s.Figure8()
	rel := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if rel[row[0]] == nil {
			rel[row[0]] = map[string]float64{}
		}
		v, _ := strconv.ParseFloat(row[2], 64)
		rel[row[0]][row[1]] = v
	}
	for _, wl := range []string{"TPC-C-10", "TPC-E"} {
		if rel[wl]["20"] <= rel[wl]["2"] {
			t.Errorf("%s: team-20 throughput %.2f not above team-2 %.2f", wl, rel[wl]["20"], rel[wl]["2"])
		}
		if rel[wl]["20"] <= 1.0 {
			t.Errorf("%s: team-20 should beat baseline (got %.2f)", wl, rel[wl]["20"])
		}
	}
}

func TestFigure9StrexBeatsReplacementPolicies(t *testing.T) {
	s := NewSuite(Options{Txns: 30, Seed: 42, Cores: []int{2}})
	tab := s.Figure9()
	vals := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if vals[row[0]] == nil {
			vals[row[0]] = map[string]float64{}
		}
		v, _ := strconv.ParseFloat(row[2], 64)
		vals[row[0]][row[1]] = v
	}
	for _, wl := range []string{"TPC-C-10", "TPC-E"} {
		bestBase := vals[wl]["LRU"]
		for _, pol := range []string{"LIP", "BIP", "SRRIP", "BRRIP"} {
			if v := vals[wl][pol]; v < bestBase {
				bestBase = v
			}
		}
		if strexLRU := vals[wl]["STREX+LRU"]; strexLRU >= bestBase {
			t.Errorf("%s: STREX+LRU %.2f not below best policy %.2f", wl, strexLRU, bestBase)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tab := smallSuite().Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestTable2MentionsKeyParameters(t *testing.T) {
	tab := smallSuite().Table2()
	s := tab.String()
	for _, want := range []string{"32KB", "1MB per core", "torus", "42ns"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, s)
		}
	}
	// The core model charges no L1 load-to-use latency, so the row that
	// echoes the paper's value must say that it is not modelled.
	for _, row := range tab.Rows {
		if row[0] == "L1 load-to-use" {
			if !strings.Contains(row[1], "not modelled") {
				t.Fatalf("Table 2 presents the L1 load-to-use latency as modelled: %q", row[1])
			}
			return
		}
	}
	t.Fatalf("Table 2 has no L1 load-to-use row:\n%s", s)
}

func TestTable3WithinPaperTolerance(t *testing.T) {
	tab := smallSuite().Table3()
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows, want 12 types", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		got, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad row %v", row)
		}
		want, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("bad paper value in %v", row)
		}
		if got < want-3 || got > want+3 {
			t.Errorf("%s/%s: measured %d units, paper %d (±3)", row[0], row[1], got, want)
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	s := smallSuite().Table4().String()
	for _, want := range []string{"5324", "1800", "1166.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 4 missing %q:\n%s", want, s)
		}
	}
}

func TestWorkloadSetsCached(t *testing.T) {
	s := smallSuite()
	if s.Set("TPC-C-1") != s.Set("TPC-C-1") {
		t.Fatal("sets not cached")
	}
}

func TestHelpers(t *testing.T) {
	s := smallSuite()
	set := s.Set("TPC-C-1")
	if instrsOf(set) == 0 || entryCount(set) == 0 {
		t.Fatal("helpers returned zero")
	}
}
