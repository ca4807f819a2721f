package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"strex/internal/obs"
)

// runStats strips a Result to the fields a tracing-equivalence check
// compares.
func runStats(r Result) Stats { return r.Stats }

func TestTimelineIsObservational(t *testing.T) {
	// A traced run must produce byte-identical statistics to an
	// untraced run of the same workload — tracing observes, never
	// perturbs.
	cfg := DefaultConfig(2)
	plain := New(cfg, tinySet(8, 40), &fifoSched{}).Run()

	tl := obs.NewTimeline(1024)
	e := New(cfg, tinySet(8, 40), &fifoSched{})
	e.SetTimeline(tl)
	traced := e.Run()

	if runStats(plain) != runStats(traced) {
		t.Fatalf("tracing perturbed the run:\nplain  %+v\ntraced %+v", plain.Stats, traced.Stats)
	}
	if tl.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}

	// Every thread completion must appear as a complete-quantum span.
	var completes int
	for _, ev := range tl.Events() {
		if ev.Kind == obs.KindQuantum && ev.Reason == obs.ReasonComplete {
			completes++
			if ev.End <= ev.Start {
				t.Fatalf("degenerate quantum span %+v", ev)
			}
		}
	}
	if completes != 8 {
		t.Fatalf("complete spans %d, want 8", completes)
	}
}

func TestTimelineRecordsYields(t *testing.T) {
	tl := obs.NewTimeline(4096)
	e := New(DefaultConfig(1), tinySet(3, 30), &yieldEverySched{n: 7})
	e.SetTimeline(tl)
	e.Run()

	var yields, completes int
	for _, ev := range tl.Events() {
		if ev.Kind != obs.KindQuantum {
			continue
		}
		switch ev.Reason {
		case obs.ReasonYield:
			yields++
		case obs.ReasonComplete:
			completes++
		}
	}
	if yields == 0 {
		t.Fatal("yielding run recorded no yield spans")
	}
	if completes != 3 {
		t.Fatalf("complete spans %d, want 3", completes)
	}
}

func TestTimelineSoloRecordsAbsorption(t *testing.T) {
	// The solo replay path with a hook-free scheduler absorbs each whole
	// quantum in one pass, without per-entry stepping; the timeline must
	// still show one valid quantum span per transaction.
	tl := obs.NewTimeline(4096)
	set := tinySet(4, 60)
	e := New(DefaultConfig(1), set, &fifoSched{})
	e.SetTimeline(tl)
	e.Run()

	var quanta int
	for _, ev := range tl.Events() {
		if ev.Kind == obs.KindQuantum {
			quanta++
		}
	}
	if quanta != 4 {
		t.Fatalf("quanta %d, want 4", quanta)
	}

	var b bytes.Buffer
	if err := tl.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if events, ok := doc["traceEvents"].([]any); !ok || len(events) == 0 {
		t.Fatal("empty trace")
	}
}
