package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeTrace unmarshals trace-event JSON the way the smoke test does.
func decodeTrace(t *testing.T, b []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("trace missing traceEvents array: %v", doc)
	}
	return doc
}

func TestTimelineWriteChrome(t *testing.T) {
	tl := NewTimeline(16)
	tl.SetMeta("tatp", "strat", 2)
	tl.Quantum(0, 3, 1, 0, 100, ReasonYield, 80)
	tl.Absorb(0, 3, 10, 40, 30)
	tl.Quantum(1, 4, 2, 5, 150, ReasonComplete, 120)

	var b bytes.Buffer
	if err := tl.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, b.Bytes())
	events := doc["traceEvents"].([]any)

	var xCount, metaCount int
	var sawHit, sawQuantum bool
	for _, raw := range events {
		e := raw.(map[string]any)
		switch e["ph"] {
		case "X":
			xCount++
			if e["name"] == "hit-run" {
				sawHit = true
			}
			if e["name"] == "txn 3" {
				sawQuantum = true
				args := e["args"].(map[string]any)
				if args["reason"] != "yield" {
					t.Errorf("txn 3 reason %v", args["reason"])
				}
				if e["dur"].(float64) != 100 {
					t.Errorf("txn 3 dur %v", e["dur"])
				}
			}
		case "M":
			metaCount++
		}
	}
	if xCount != 3 {
		t.Fatalf("X events %d, want 3", xCount)
	}
	if !sawHit || !sawQuantum {
		t.Fatalf("missing spans: hit=%v quantum=%v", sawHit, sawQuantum)
	}
	// process_name + one thread_name per core.
	if metaCount != 3 {
		t.Fatalf("metadata events %d, want 3", metaCount)
	}
	other := doc["otherData"].(map[string]any)
	if other["workload"] != "tatp" || other["sched"] != "strat" {
		t.Fatalf("otherData %v", other)
	}
}

func TestTimelineKeepsEarliestOnOverflow(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 10; i++ {
		tl.Quantum(0, i, 0, uint64(i*10), uint64(i*10+5), ReasonComplete, 1)
	}
	if tl.Len() != 4 {
		t.Fatalf("len %d, want 4", tl.Len())
	}
	if tl.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tl.Dropped())
	}
	// The retained events are the first four, not the last.
	if got := tl.Events()[0].Txn; got != 0 {
		t.Fatalf("first retained txn %d, want 0", got)
	}
	if got := tl.Events()[3].Txn; got != 3 {
		t.Fatalf("last retained txn %d, want 3", got)
	}
}

func TestTimelineNilInert(t *testing.T) {
	var tl *Timeline
	tl.SetMeta("w", "s", 1)
	tl.Quantum(0, 0, 0, 0, 10, ReasonComplete, 1)
	tl.Absorb(0, 0, 0, 5, 5)
	if tl.Len() != 0 || tl.Dropped() != 0 || tl.Events() != nil {
		t.Fatal("nil timeline recorded something")
	}
	var b bytes.Buffer
	if err := tl.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, b.Bytes()) // still a valid (near-empty) trace
}

func TestTimelineIgnoresEmptySpans(t *testing.T) {
	tl := NewTimeline(4)
	tl.Quantum(0, 1, 0, 50, 50, ReasonYield, 0) // zero-length
	tl.Absorb(0, 1, 60, 55, 3)                  // end < start
	if tl.Len() != 0 {
		t.Fatalf("recorded %d degenerate spans", tl.Len())
	}
}
