package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Timeline event kinds. A quantum span covers one scheduling quantum of
// a transaction on a core; a hit-run span marks a stretch of consecutive
// L1-I hits inside a quantum that the engine's step loop absorbed
// without per-entry stepping.
const (
	KindQuantum = uint8(iota)
	// KindSegRun is never emitted: the engine has no segment replay. It
	// remains only because the benchmark module in perfbench/ still
	// counts spans of this kind.
	KindSegRun
	KindHitRun
)

// Why a quantum span ended.
const (
	ReasonComplete = uint8(iota) // transaction finished
	ReasonYield                  // scheduler-directed yield
	ReasonMigrate                // moved to another core
	ReasonPreempt                // preempted (e.g. would-evict hook)
	ReasonStop                   // run stopped (cancellation or horizon)
)

var reasonNames = [...]string{"complete", "yield", "migrate", "preempt", "stop"}

// Event is one recorded span. Times are engine cycles (the trace
// renders them as microseconds: one simulated cycle = 1 µs, which keeps
// Perfetto's zoom range sensible for million-cycle runs).
type Event struct {
	Kind    uint8
	Reason  uint8 // quantum spans only
	Core    int32
	Txn     int32  // transaction ID, -1 when idle/unknown
	TxnType int32  // transaction type, -1 when unknown
	Start   uint64 // cycles
	End     uint64 // cycles
	Instrs  uint64 // quantum: instructions retired in the span
	Entries uint64 // hit-run spans: trace entries absorbed
}

// Timeline is a preallocated ring of engine events. It is opt-in and
// nil-inert: a nil *Timeline makes every record call a no-op, and the
// engine additionally guards its sites with a nil check so the traced
// path costs nothing when tracing is off.
//
// The ring keeps the EARLIEST events when capacity is exceeded: new
// events are dropped (counted in Dropped) rather than overwriting old
// ones. A run's opening — warmup, first team formation — is what the
// timeline exists to explain; a tail-biased ring would discard exactly
// that under overflow.
//
// Not safe for concurrent use: one engine goroutine records, and the
// service renders the trace once after the run completes.
type Timeline struct {
	events   []Event
	dropped  uint64
	workload string
	sched    string
	cores    int
}

// NewTimeline returns a tracer holding up to capacity events
// (capacity < 1 selects 1<<15 ≈ 32k, roughly 1.5 MB).
func NewTimeline(capacity int) *Timeline {
	if capacity < 1 {
		capacity = 1 << 15
	}
	return &Timeline{events: make([]Event, 0, capacity)}
}

// SetMeta attaches run identification rendered into the trace header.
func (t *Timeline) SetMeta(workload, sched string, cores int) {
	if t == nil {
		return
	}
	t.workload, t.sched, t.cores = workload, sched, cores
}

func (t *Timeline) record(e Event) {
	if len(t.events) == cap(t.events) {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Quantum records one scheduling quantum of txn (type txnType) on core
// over [start, end) cycles, ending for the given reason, having retired
// instrs instructions.
func (t *Timeline) Quantum(core int, txn, txnType int, start, end uint64, reason uint8, instrs uint64) {
	if t == nil || end <= start {
		return
	}
	t.record(Event{
		Kind: KindQuantum, Reason: reason,
		Core: int32(core), Txn: int32(txn), TxnType: int32(txnType),
		Start: start, End: end, Instrs: instrs,
	})
}

// Absorb records a hit-run span of entries trace entries on core over
// [start, end) cycles.
func (t *Timeline) Absorb(core int, txn int, start, end uint64, entries uint64) {
	if t == nil || end <= start {
		return
	}
	t.record(Event{
		Kind: KindHitRun,
		Core: int32(core), Txn: int32(txn), TxnType: -1,
		Start: start, End: end, Entries: entries,
	})
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns how many events were discarded after the ring filled.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the recorded events in record order (the backing
// slice; callers must not mutate it).
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" is a complete event with ts+dur in microseconds; ph "M" is
// metadata (process/thread names). Perfetto loads this directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	TimeUnit    string         `json:"displayTimeUnit"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteChrome renders the timeline as Chrome trace-event JSON: one
// Perfetto "thread" per core, quantum spans named by transaction with
// the end reason and instruction count in args, absorption spans nested
// inside them. Cycles map 1:1 to trace microseconds.
func (t *Timeline) WriteChrome(w io.Writer) error {
	trace := chromeTrace{TimeUnit: "ms"}
	cores := 0
	if t != nil {
		cores = t.cores
		for _, e := range t.events {
			if int(e.Core) >= cores {
				cores = int(e.Core) + 1
			}
		}
		trace.OtherData = map[string]any{
			"workload": t.workload,
			"sched":    t.sched,
			"cores":    t.cores,
			"events":   len(t.events),
			"dropped":  t.dropped,
		}
	}
	trace.TraceEvents = make([]chromeEvent, 0, 1+cores+t.Len())
	trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "strex engine"},
	})
	for c := 0; c < cores; c++ {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: c,
			Args: map[string]any{"name": coreName(c)},
		})
	}
	if t != nil {
		for _, e := range t.events {
			ce := chromeEvent{
				Ph:  "X",
				Tid: int(e.Core),
				Ts:  e.Start,
				Dur: e.End - e.Start,
			}
			switch e.Kind {
			case KindQuantum:
				ce.Cat = "quantum"
				ce.Name = txnName(int(e.Txn))
				reason := "?"
				if int(e.Reason) < len(reasonNames) {
					reason = reasonNames[e.Reason]
				}
				ce.Args = map[string]any{"reason": reason, "instrs": e.Instrs}
				if e.TxnType >= 0 {
					ce.Args["type"] = e.TxnType
				}
			case KindHitRun:
				ce.Cat = "absorb"
				ce.Name = "hit-run"
				ce.Args = map[string]any{"entries": e.Entries}
			}
			trace.TraceEvents = append(trace.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

func coreName(c int) string { return "core " + strconv.Itoa(c) }

func txnName(id int) string {
	if id < 0 {
		return "idle"
	}
	return "txn " + strconv.Itoa(id)
}
