package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	p50 := percentileOf(xs, 50)
	if p50.Value != 50 || p50.N != 100 || p50.Beyond != 50 {
		t.Fatalf("p50 = %+v, want value 50 with 50 beyond of 100", p50)
	}
	p90 := percentileOf(xs, 90)
	if p90.Value != 90 || p90.Beyond != 10 || !p90.Reportable() {
		t.Fatalf("p90 = %+v, want value 90 with exactly 10 beyond (reportable)", p90)
	}
	if p99 := percentileOf(xs, 99); p99.Reportable() {
		t.Fatalf("p99 of 100 samples has %d beyond and must not be reportable", p99.Beyond)
	}
	if got := percentileOf(xs[:99], 90); got.Reportable() {
		t.Fatalf("p90 of 99 samples has %d beyond and must not be reportable", got.Beyond)
	}
	cands := []float64{50, 90, 99, 99.9}
	if top, ok := highestReportable(xs, cands); !ok || top.P != 90 {
		t.Fatalf("highest reportable of 100 = %+v %v, want p90", top, ok)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if top, ok := highestReportable(big, cands); !ok || top.P != 99 || top.Beyond != 10 {
		t.Fatalf("highest reportable of 1000 = %+v %v, want p99 with 10 beyond", top, ok)
	}
	if _, ok := highestReportable(xs[:15], cands); ok {
		t.Fatal("15 samples leave fewer than 10 beyond p50; nothing is reportable")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestUnitMedians(t *testing.T) {
	perPass := [][]float64{{1, 10}, {3, 5}, {2, 6}, {9, 7}}
	got, err := unitMedians(perPass)
	if err != nil || got[0] != 2.5 || got[1] != 6.5 {
		t.Fatalf("unitMedians = %v %v, want [2.5 6.5]", got, err)
	}
	if _, err := unitMedians([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("passes that time different units must be refused")
	}
	if _, err := unitMedians(nil); err == nil {
		t.Fatal("no passes must be refused")
	}
}

func TestCalibratorWindows(t *testing.T) {
	c := newCalibrator()
	c.open(nil, -1)
	if c.n != 1 {
		t.Fatalf("an opened window holds %d slices, want the opening one", c.n)
	}
	for i := 0; i < 9; i++ {
		c.after(calEvery / 4) // 2.25 calEvery of units: two more slices
	}
	if c.n != 3 {
		t.Fatalf("after 2.25 calEvery of units the window holds %d slices, want 3", c.n)
	}
	if f := c.factor(); !(f > 0) || math.IsInf(f, 0) {
		t.Fatalf("factor = %v, want a positive finite number", f)
	}
	c.open(nil, -1)
	if c.n != 1 || c.total <= 0 {
		t.Fatalf("a reopened window holds %d slices and %v, want one fresh slice", c.n, c.total)
	}
}

func span(id, parent int, layer string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Layer: layer, Name: layer, Start: start, End: end}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		span(0, -1, "harness", 0, 100),
		span(1, 0, "experiments", 10, 90),
		span(2, 1, "sim", 20, 80),
		span(3, 2, "trace", 20, 30),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 20, 1: 20, 2: 50, 3: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	checkSum(t, spans, 100)
}

func TestSelfTimeBackToBackAndOverlapping(t *testing.T) {
	spans := []Span{
		span(0, -1, "harness", 0, 100),
		span(1, 0, "sim", 0, 40),     // back to back with 2
		span(2, 0, "sim", 40, 70),    // back to back with 1
		span(3, 0, "strex", 60, 90),  // overlaps 2: the overlap counts once for the parent
		span(4, 0, "bench", 95, 120), // runs past its parent: clipped
	}
	self := selfTimes(spans)
	if self[0] != 5 {
		t.Fatalf("parent self = %v, want 5 (covered 0-90 and 95-100)", self[0])
	}
	if self[1] != 40 || self[2] != 30 || self[3] != 30 {
		t.Fatalf("children self = %v %v %v, want 40 30 30", self[1], self[2], self[3])
	}
	layers := layerSelf(spans)
	if layers["sim"] != 70 || layers["harness"] != 5 {
		t.Fatalf("layer self = %v", layers)
	}
	// A tree without overlap sums exactly to its root.
	checkSum(t, spans[:3], 100)
}

func checkSum(t *testing.T, spans []Span, root time.Duration) {
	t.Helper()
	var sum time.Duration
	for _, d := range layerSelf(spans) {
		sum += d
	}
	if sum != root {
		t.Fatalf("self times sum to %v, root lasts %v", sum, root)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(-1, "harness", "x", "")
	tr.End(id)
	if id != -1 || tr.Add(id, "sim", "y", "", 0, 1) != -1 || tr.Spans() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr = newTracer()
	root := tr.Begin(-1, "harness", "root", "")
	child := tr.Add(root, "sim", "run", "c1", tr.Now(), tr.Now())
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[child].Parent != root || spans[root].End < spans[root].Start {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestGeomeanRatio(t *testing.T) {
	xs := []float64{1234567, 0.001, 3e9, 7}
	if g, err := geomeanRatio(xs, xs); err != nil || g != 1 {
		t.Fatalf("identical inputs give %v (%v), want exactly 1", g, err)
	}
	g, err := geomeanRatio([]float64{2, 8}, []float64{1, 1})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2, 8) = %v (%v), want 4", g, err)
	}
	g, err = geomeanRatio([]float64{1, 1}, []float64{2, 8})
	if err != nil || math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("geomean(1/2, 1/8) = %v (%v), want 0.25", g, err)
	}
	for _, bad := range [][2][]float64{
		{{1}, {0}},
		{{-1}, {1}},
		{{math.Inf(1)}, {1}},
		{{math.NaN()}, {1}},
		{{1, 2}, {1}},
		{nil, nil},
	} {
		if _, err := geomeanRatio(bad[0], bad[1]); err == nil {
			t.Errorf("geomeanRatio(%v, %v) accepted", bad[0], bad[1])
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.ns_per_entry.base.c2", "0x", "a-b.c_d", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", strings.Repeat("a", 65), "p50%"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric definitions in
// this package and BENCHMARK.json at the checkout root identical.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	compare := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range got {
			w := want[i]
			if d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, w)
			}
			if !validName(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
}
