package sched

import (
	"testing"

	"strex/internal/codegen"
	"strex/internal/sim"
	"strex/internal/trace"
	"strex/internal/workload"
)

// segmentedSet builds n identical transactions that loop over S disjoint
// cache-sized code segments — the Figure 3 scenario where SLICC shines
// given one core per segment.
func segmentedSet(n, segments, segBlocks, iterations int) *workload.Set {
	set := &workload.Set{Name: "segments", Types: []string{"T"}}
	for i := 0; i < n; i++ {
		buf := &trace.Buffer{}
		for it := 0; it < iterations; it++ {
			for s := 0; s < segments; s++ {
				base := uint32(s * 100000)
				for b := 0; b < segBlocks; b++ {
					buf.AppendInstr(base+uint32(b), 10)
				}
			}
		}
		buf.AppendData(codegen.DataBase+uint32(i), false)
		set.Txns = append(set.Txns, &workload.Txn{ID: i, Type: 0, Header: 0, Trace: buf})
	}
	return set
}

func TestSliccPipelinesSegmentsAcrossCores(t *testing.T) {
	// 3 segments of ~0.9 cache each; 3 cores. SLICC should pin one
	// segment per core and pipeline, beating single-core-style thrash.
	set := segmentedSet(6, 3, 460, 2)
	slicc := sim.New(sim.DefaultConfig(3), set, NewSlicc()).Run()
	base := sim.New(sim.DefaultConfig(3), set, NewBaseline()).Run()
	if slicc.Stats.Migrations == 0 {
		t.Fatal("SLICC never migrated")
	}
	if slicc.Stats.IMisses >= base.Stats.IMisses {
		t.Fatalf("SLICC misses %d not below baseline %d with enough cores",
			slicc.Stats.IMisses, base.Stats.IMisses)
	}
}

func TestSliccIntraTransactionLocality(t *testing.T) {
	// The looping transaction re-executes its segments: with enough
	// cores SLICC fetches each segment roughly once and the loop
	// iterations hit remotely — the "far-flung locality" STREX cannot
	// exploit (Section 3). Compare against STREX on the same workload.
	set := segmentedSet(4, 4, 460, 3)
	slicc := sim.New(sim.DefaultConfig(4), set, NewSlicc()).Run()
	strex := sim.New(sim.DefaultConfig(4), set, NewStrex()).Run()
	if slicc.Stats.IMisses >= strex.Stats.IMisses {
		t.Fatalf("on looping segments with ample cores SLICC (%d misses) should beat STREX (%d)",
			slicc.Stats.IMisses, strex.Stats.IMisses)
	}
}

func TestSliccInFlightBound(t *testing.T) {
	set := segmentedSet(40, 2, 400, 1)
	s := NewSlicc()
	e := sim.New(sim.DefaultConfig(2), set, s)
	// Trigger a refill by dispatching.
	th := s.Dispatch(0)
	if th == nil {
		t.Fatal("no dispatch")
	}
	if s.inFlight > 2*e.Cores() {
		t.Fatalf("in-flight %d exceeds 2N=%d", s.inFlight, 2*e.Cores())
	}
}

func TestSliccQueuesDrainOnCompletion(t *testing.T) {
	set := segmentedSet(10, 2, 300, 1)
	s := NewSlicc()
	res := sim.New(sim.DefaultConfig(2), set, s).Run()
	for c := range s.queues {
		if s.queues[c].n != 0 {
			t.Fatalf("core %d queue not drained", c)
		}
	}
	if s.inFlight != 0 {
		t.Fatalf("in-flight = %d after completion", s.inFlight)
	}
	for _, th := range res.Threads {
		if !th.Cursor.Done() {
			t.Fatal("thread lost")
		}
	}
}

func TestRunQueueIsFIFOAcrossWrap(t *testing.T) {
	q := runQueue{buf: make([]*sim.Thread, 3)}
	ts := make([]sim.Thread, 4)
	q.push(&ts[0])
	q.push(&ts[1])
	if got := q.pop(); got != &ts[0] {
		t.Fatal("pop did not return the oldest thread")
	}
	q.push(&ts[2])
	q.push(&ts[3]) // wraps past the end of the ring
	for i, want := range []*sim.Thread{&ts[1], &ts[2], &ts[3]} {
		if got := q.pop(); got != want {
			t.Fatalf("pop %d out of order", i)
		}
	}
	if q.n != 0 {
		t.Fatalf("%d threads left after draining", q.n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a push past the ring's capacity did not panic")
		}
	}()
	for i := 0; i < 4; i++ {
		q.push(&ts[0])
	}
}

func TestSliccSingleCoreDegradesGracefully(t *testing.T) {
	// With one core there is nowhere to migrate; SLICC must still finish
	// and perform no migrations.
	set := segmentedSet(4, 3, 460, 2)
	res := sim.New(sim.DefaultConfig(1), set, NewSlicc()).Run()
	if res.Stats.Migrations != 0 {
		t.Fatalf("migrated %d times on a single core", res.Stats.Migrations)
	}
	for _, th := range res.Threads {
		if !th.Cursor.Done() {
			t.Fatal("thread unfinished")
		}
	}
}

func TestHybridDelegatesEverything(t *testing.T) {
	set := segmentedSet(8, 2, 300, 1)
	h := NewHybrid(set, 2, 2)
	res := sim.New(sim.DefaultConfig(2), set, h).Run()
	for _, th := range res.Threads {
		if !th.Cursor.Done() {
			t.Fatal("hybrid lost a thread")
		}
	}
	if h.Name() == "" || h.FPTable() == nil {
		t.Fatal("hybrid introspection broken")
	}
}
