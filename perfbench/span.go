package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer, or one
// interval a layer reported through a hook (a run-observer duration, a
// segment-compile delta, a server-side run time). Times are offsets
// from the tracer's origin.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Cell   string        `json:"cell,omitempty"` // cell, run or job id
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// disabled tracer: every method is a no-op returning -1, so the
// workloads record spans unconditionally and untraced runs pay only a
// nil check.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Now returns the current offset from the tracer's origin.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// At converts a wall-clock instant into a tracer offset.
func (t *Tracer) At(when time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return when.Sub(t.origin)
}

// Begin opens a span now and returns its id.
func (t *Tracer) Begin(parent int, layer, name, cell string) int {
	if t == nil {
		return -1
	}
	return t.Add(parent, layer, name, cell, t.Now(), -1)
}

// End closes span id now.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span with known bounds (end < 0 leaves it open for
// End) and returns its id.
func (t *Tracer) Add(parent int, layer, name, cell string, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Cell: cell, Start: start, End: end})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans to path as a JSON array.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers. Children are
// clipped to their parent, and overlapping children count once, so for
// any tree the self times of all spans sum to the roots' durations.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			cur, open = x, true
		case x.a <= cur.b:
			if x.b > cur.b {
				cur.b = x.b
			}
		default:
			total += cur.b - cur.a
			cur = x
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// layerSelf sums self times per layer.
func layerSelf(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}
