// Package mapreduce generates the paper's control workload: a Hadoop
// MapReduce job (CloudSuite data analytics) whose instruction footprint
// *fits in the L1-I*. The paper uses it to show STREX is robust — it
// must neither help nor hurt workloads without OLTP-like instruction
// thrashing (Figure 5/6: MapReduce I-/D-MPKI within 1% of baseline).
//
// Each of the paper's 300 threads performs a single map or reduce task:
// a tight code loop (~24KB total, under one 32KB L1-I) streaming through
// a private slice of the input, with a small shared shuffle region.
package mapreduce

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Task types: map and reduce (the paper's threads each do one task).
const (
	TMap = iota
	TReduce
	numTypes
)

var typeNames = []string{"Map", "Reduce"}

// Config parameterizes the job.
type Config struct {
	Seed          uint64
	BlocksPerTask int // input blocks each task streams through
}

// DefaultConfig matches the paper's setup shape: small code, streaming
// data split across tasks.
func DefaultConfig() Config { return Config{Seed: 1, BlocksPerTask: 600} }

// Workload generates map/reduce task traces.
type Workload struct {
	cfg    Config
	layout *codegen.Layout
	rng    *xrand.RNG
	salt   uint64 // mixed into shuffle keys so the seed shapes the traces

	mapRoot, mapParse, mapEmit  codegen.FuncID
	redRoot, redMerge, redWrite codegen.FuncID
	nextInput                   uint32
	shuffleBase                 uint32
}

// New builds the workload. The whole code footprint (both task types
// plus runtime glue) is ~24KB — it fits in a 32KB L1-I with room to
// spare, which is the property the paper relies on.
func New(cfg Config) *Workload {
	if cfg.BlocksPerTask <= 0 {
		cfg.BlocksPerTask = DefaultConfig().BlocksPerTask
	}
	l := codegen.NewLayout()
	w := &Workload{
		cfg:      cfg,
		layout:   l,
		rng:      xrand.New(cfg.Seed ^ 0x3A9),
		salt:     xrand.Hash64(cfg.Seed ^ 0x3A9F),
		mapRoot:  l.AddFunc("mr.map.root", 2, 0, 0),
		mapParse: l.AddFunc("mr.map.parse", 5, 2, 0.3),
		mapEmit:  l.AddFunc("mr.map.emit", 4, 2, 0.3),
		redRoot:  l.AddFunc("mr.reduce.root", 2, 0, 0),
		redMerge: l.AddFunc("mr.reduce.merge", 6, 2, 0.3),
		redWrite: l.AddFunc("mr.reduce.write", 4, 2, 0.3),
	}
	w.nextInput = codegen.DataBase
	w.shuffleBase = codegen.DataBase + (1 << 24) // shared shuffle region
	return w
}

// Name implements workload.Generator.
func (w *Workload) Name() string { return "MapReduce" }

// TypeNames returns the task type labels (registry metadata).
func TypeNames() []string { return append([]string(nil), typeNames...) }

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return TypeNames() }

// NumTypes returns the number of task types.
func NumTypes() int { return numTypes }

// Generate implements workload.Generator: alternating map and reduce
// tasks (2:1, as a job's task population roughly is).
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n, func(i int) int {
		if i%3 == 2 {
			return TReduce
		}
		return TMap
	})
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID < 0 || typeID >= numTypes {
		panic(fmt.Sprintf("mapreduce: bad type %d", typeID))
	}
	return w.generate(n, func(int) int { return typeID })
}

func (w *Workload) generate(n int, pick func(int) int) *workload.Set {
	set := &workload.Set{
		Name:   w.Name(),
		Types:  w.TypeNames(),
		Layout: w.layout,
	}
	var scratch trace.Buffer
	for i := 0; i < n; i++ {
		typ := pick(i)
		scratch.Reset()
		w.runTask(typ, uint64(i), &scratch)
		root := w.mapRoot
		if typ == TReduce {
			root = w.redRoot
		}
		set.Txns = append(set.Txns, &workload.Txn{
			ID:     i,
			Type:   typ,
			Header: w.layout.Func(root).Base,
			Trace:  scratch.Clone(),
		})
	}
	set.DataBlocks = int(w.nextInput - codegen.DataBase)
	return set
}

// runTask emits one task: the tiny code loop re-executes per input
// block, so the instruction stream is hot while the data streams.
func (w *Workload) runTask(typ int, id uint64, buf *trace.Buffer) {
	em := codegen.Emitter{L: w.layout, Buf: buf}
	input := w.nextInput
	w.nextInput += uint32(w.cfg.BlocksPerTask)
	if typ == TMap {
		em.Call(w.mapRoot, id)
		for b := 0; b < w.cfg.BlocksPerTask; b++ {
			em.Call(w.mapParse, id^uint64(b))
			em.Data(input+uint32(b), false)
			if b%8 == 0 {
				em.Call(w.mapEmit, id^uint64(b))
				em.Data(w.shuffleBase+uint32(xrand.Hash64(w.salt+id+uint64(b))%4096), true)
			}
		}
		return
	}
	em.Call(w.redRoot, id)
	for b := 0; b < w.cfg.BlocksPerTask; b++ {
		em.Call(w.redMerge, id^uint64(b))
		em.Data(w.shuffleBase+uint32(xrand.Hash64(w.salt+id*131+uint64(b))%4096), false)
		if b%16 == 0 {
			em.Call(w.redWrite, id^uint64(b))
			em.Data(input+uint32(b), true)
		}
	}
}

// CodeBlocks returns the total code footprint in blocks (diagnostics and
// the fits-in-L1I test).
func (w *Workload) CodeBlocks() int { return w.layout.CodeBlocks() }
