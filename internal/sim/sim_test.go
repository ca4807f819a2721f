package sim

import (
	"testing"

	"strex/internal/codegen"
	"strex/internal/memsys"
	"strex/internal/trace"
	"strex/internal/workload"
)

// fifoSched is a minimal run-to-completion scheduler for engine tests.
type fifoSched struct {
	e         *Engine
	completed []*Thread
}

func (f *fifoSched) Name() string                    { return "fifo" }
func (f *fifoSched) Bind(e *Engine)                  { f.e = e }
func (f *fifoSched) Hooks() HookMask                 { return 0 }
func (f *fifoSched) HitRunOK(int) bool               { return true }
func (f *fifoSched) OnHitRun(_ int, _ int, _ uint64) {}
func (f *fifoSched) Dispatch(core int) *Thread {
	p := f.e.Pending()
	if len(p) == 0 {
		return nil
	}
	t := p[0]
	f.e.TakePending(t)
	return t
}
func (f *fifoSched) Phase(int) (uint8, bool)          { return 0, false }
func (f *fifoSched) OnWouldEvict(int, uint8) bool     { return false }
func (f *fifoSched) OnEvent(int, Event) (Action, int) { return Continue, 0 }
func (f *fifoSched) OnYield(int, *Thread)             {}
func (f *fifoSched) OnMigrate(int, int, *Thread)      {}
func (f *fifoSched) OnComplete(core int, t *Thread)   { f.completed = append(f.completed, t) }

// yieldEverySched yields after every N instruction entries (tests the
// context-switch path).
type yieldEverySched struct {
	fifoSched
	n     int
	count int
	queue []*Thread
}

// Hooks overrides the embedded fifoSched's empty mask: this scheduler
// counts every instruction entry, hits included.
func (y *yieldEverySched) Hooks() HookMask { return HookIHit | HookIMiss }

func (y *yieldEverySched) Dispatch(core int) *Thread {
	if len(y.queue) > 0 {
		t := y.queue[0]
		y.queue = y.queue[1:]
		return t
	}
	return y.fifoSched.Dispatch(core)
}

func (y *yieldEverySched) OnEvent(core int, ev Event) (Action, int) {
	if ev.Entry.Kind != trace.KInstr {
		return Continue, 0
	}
	y.count++
	if y.count%y.n == 0 {
		return Yield, 0
	}
	return Continue, 0
}

func (y *yieldEverySched) OnYield(core int, t *Thread) { y.queue = append(y.queue, t) }

// tinySet builds a hand-rolled workload: n txns, each touching `blocks`
// instruction blocks and one data block.
func tinySet(n, blocks int) *workload.Set {
	set := &workload.Set{Name: "tiny", Types: []string{"T"}}
	for i := 0; i < n; i++ {
		buf := &trace.Buffer{}
		for b := 0; b < blocks; b++ {
			buf.AppendInstr(uint32(b), 10)
		}
		buf.AppendData(codegen.DataBase+uint32(i), i%2 == 0)
		set.Txns = append(set.Txns, &workload.Txn{ID: i, Type: 0, Header: 0, Trace: buf})
	}
	return set
}

func TestRunCompletesAllThreads(t *testing.T) {
	set := tinySet(10, 50)
	s := &fifoSched{}
	res := New(DefaultConfig(2), set, s).Run()
	if len(res.Threads) != 10 {
		t.Fatalf("%d threads", len(res.Threads))
	}
	for _, th := range res.Threads {
		if !th.Cursor.Done() {
			t.Fatal("thread not finished")
		}
		if th.FinishCycle == 0 {
			t.Fatal("finish cycle unset")
		}
	}
	if len(s.completed) != 10 {
		t.Fatalf("OnComplete called %d times", len(s.completed))
	}
}

func TestInstrAccounting(t *testing.T) {
	set := tinySet(4, 25)
	res := New(DefaultConfig(2), set, &fifoSched{}).Run()
	want := uint64(4 * 25 * 10)
	if res.Stats.Instrs != want {
		t.Fatalf("instrs = %d, want %d", res.Stats.Instrs, want)
	}
}

func TestColdMissesCounted(t *testing.T) {
	set := tinySet(1, 100)
	res := New(DefaultConfig(1), set, &fifoSched{}).Run()
	if res.Stats.IMisses != 100 {
		t.Fatalf("I misses = %d, want 100 cold misses", res.Stats.IMisses)
	}
	if res.Stats.DMisses != 1 {
		t.Fatalf("D misses = %d, want 1", res.Stats.DMisses)
	}
}

func TestSecondTxnHitsWarmCache(t *testing.T) {
	// Two identical txns on one core: the second finds all blocks warm.
	set := tinySet(2, 100)
	res := New(DefaultConfig(1), set, &fifoSched{}).Run()
	if res.Stats.IMisses != 100 {
		t.Fatalf("I misses = %d, want 100 (second txn all hits)", res.Stats.IMisses)
	}
}

func TestMissLatencyChargesCycles(t *testing.T) {
	missSet := tinySet(1, 400)
	missRes := New(DefaultConfig(1), missSet, &fifoSched{}).Run()

	// Same instruction count, one block: near-zero misses.
	hitSet := &workload.Set{Name: "hit", Types: []string{"T"}}
	buf := &trace.Buffer{}
	for i := 0; i < 400; i++ {
		buf.AppendInstr(1, 10)
	}
	buf.AppendData(codegen.DataBase, false)
	hitSet.Txns = append(hitSet.Txns, &workload.Txn{ID: 0, Trace: buf})
	hitRes := New(DefaultConfig(1), hitSet, &fifoSched{}).Run()

	if missRes.Stats.Cycles <= hitRes.Stats.Cycles {
		t.Fatalf("400 misses (%d cyc) should cost more than 0 misses (%d cyc)",
			missRes.Stats.Cycles, hitRes.Stats.Cycles)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	set := tinySet(8, 200)
	one := New(DefaultConfig(1), set, &fifoSched{}).Run()
	setB := tinySet(8, 200)
	four := New(DefaultConfig(4), setB, &fifoSched{}).Run()
	if four.Stats.Cycles >= one.Stats.Cycles {
		t.Fatalf("4 cores (%d cyc) not faster than 1 (%d cyc)", four.Stats.Cycles, one.Stats.Cycles)
	}
}

func TestYieldPathChargesSwitchCost(t *testing.T) {
	set := tinySet(2, 60)
	plain := New(DefaultConfig(1), set, &fifoSched{}).Run()

	setB := tinySet(2, 60)
	y := &yieldEverySched{n: 10}
	yielded := New(DefaultConfig(1), setB, y).Run()
	if yielded.Stats.Switches == 0 {
		t.Fatal("no switches recorded")
	}
	if yielded.Stats.Cycles <= plain.Stats.Cycles {
		t.Fatal("context switching should cost cycles on this workload")
	}
	for _, th := range yielded.Threads {
		if !th.Cursor.Done() {
			t.Fatal("yielded thread lost")
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		set := tinySet(6, 120)
		return New(DefaultConfig(2), set, &fifoSched{}).Run().Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestPoolWindowLimitsVisibility(t *testing.T) {
	set := tinySet(50, 10)
	cfg := DefaultConfig(1)
	cfg.PoolWindow = 7
	e := New(cfg, set, &fifoSched{})
	if got := len(e.Pending()); got != 7 {
		t.Fatalf("window = %d, want 7", got)
	}
}

func TestTakePendingUnknownPanics(t *testing.T) {
	set := tinySet(2, 10)
	e := New(DefaultConfig(1), set, &fifoSched{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown thread")
		}
	}()
	e.TakePending(&Thread{})
}

func TestThroughputMetric(t *testing.T) {
	s := Stats{Cycles: 2_000_000}
	if got := s.Throughput(10); got != 5 {
		t.Fatalf("throughput = %v, want 5 txn/Mcycle", got)
	}
}

func TestMPKIMetrics(t *testing.T) {
	s := Stats{Instrs: 10_000, IMisses: 250, DMisses: 50}
	if s.IMPKI() != 25 || s.DMPKI() != 5 {
		t.Fatalf("IMPKI=%v DMPKI=%v", s.IMPKI(), s.DMPKI())
	}
	var zero Stats
	if zero.IMPKI() != 0 || zero.DMPKI() != 0 {
		t.Fatal("zero stats should give zero MPKI")
	}
}

// TestMaxCores: an engine takes up to memsys.MaxCores cores and refuses
// one more.
func TestMaxCores(t *testing.T) {
	for _, cores := range []int{memsys.MaxCores, memsys.MaxCores + 1} {
		cfg := DefaultConfig(cores)
		cfg.Mem.L2SliceKB = 16 // keep the shared L2 small
		func() {
			defer func() {
				if r := recover(); (r != nil) != (cores > memsys.MaxCores) {
					t.Errorf("New with %d cores: panic %v", cores, r)
				}
			}()
			New(cfg, tinySet(2, 4), &fifoSched{}).Run()
		}()
	}
}
