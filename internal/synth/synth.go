// Package synth generates parameterized synthetic workloads with a
// *dialable* instruction footprint. The fixed benchmarks (TPC-C, TPC-E,
// TATP, SmallBank, Voter, MapReduce) each pin one point on the
// footprint axis; synth turns that axis into a continuous knob, so the
// experiments can sweep the paper's core claim directly: STREX wins
// when the per-type instruction footprint exceeds the L1-I and stops
// mattering when it fits (Section 2, Figure 5).
//
// A synthetic transaction type is a chain of functions whose touched
// blocks sum to FootprintUnits 32KB-L1-I units (the paper's Table 3
// metric); every transaction of the type walks the whole chain, calling
// each function once with a per-transaction path key, so same-type
// transactions overlap heavily but not perfectly — the same structure
// internal/codegen gives the storage-manager workloads. The data side
// interleaves accesses to a shared hot region (dialable via DataReuse)
// with a private per-transaction region, covering both ends of the
// coherence spectrum.
package synth

import (
	"fmt"
	"strconv"

	"strex/internal/codegen"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Params dials the synthetic workload. Zero fields select defaults.
type Params struct {
	// FootprintUnits is the touched instruction footprint of every
	// transaction type, in 32KB L1-I units (default 4; useful range
	// 0.5–16). Values at or below 1 make the code fit one L1-I — the
	// regime where STREX has nothing to win.
	FootprintUnits float64
	// Types is the number of transaction types (default 4). 1 gives
	// Voter-style degenerate team formation.
	Types int
	// DataReuse is the fraction of data accesses that hit the shared
	// hot region instead of the transaction's private region. Like
	// every field, the zero value selects the default (0.5); pass any
	// negative value for the fully-private endpoint (reuse 0), and
	// values above 1 clamp to 1. High reuse concentrates D-side
	// traffic on shared blocks; low reuse streams through private
	// ones.
	DataReuse float64
	// DataPerTxn is the number of data accesses per transaction
	// (default 48).
	DataPerTxn int
	// Seed makes generation deterministic; it is used verbatim, so 0 is
	// a valid seed distinct from 1.
	Seed uint64
}

// DefaultParams returns the middle-of-the-road configuration: a 4-unit
// footprint (between TPC-E's lightest and TPC-C's heaviest types), four
// types, balanced data reuse.
func DefaultParams() Params {
	return Params{FootprintUnits: 4, Types: 4, DataReuse: 0.5, DataPerTxn: 48}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.FootprintUnits <= 0 {
		p.FootprintUnits = d.FootprintUnits
	}
	if p.Types <= 0 {
		p.Types = d.Types
	}
	if p.DataReuse < 0 {
		p.DataReuse = 0
	} else if p.DataReuse > 1 {
		p.DataReuse = 1
	} else if p.DataReuse == 0 {
		p.DataReuse = d.DataReuse
	}
	if p.DataPerTxn <= 0 {
		p.DataPerTxn = d.DataPerTxn
	}
	return p
}

// Shared hot region and per-transaction private regions (block counts).
// Private slots are reused modulo privSlots, like internal/db's stack
// region, so the data space stays bounded.
const (
	hotBlocks    = 4096 // 256KB shared hot data
	privSlots    = 1024
	privBlocks   = 32 // 2KB private region per transaction
	chunkKB      = 16 // body functions are laid out in 16KB chunks
	chunkGroups  = 4
	chunkVarFrac = 0.3
)

// txnType is one synthetic transaction type's code chain.
type txnType struct {
	root codegen.FuncID
	body []codegen.FuncID
}

// Workload generates synthetic transactions. It implements
// workload.Generator.
type Workload struct {
	p      Params
	layout *codegen.Layout
	rng    *xrand.RNG
	salt   uint64
	types  []txnType
	names  []string

	hotBase  uint32
	privBase uint32
}

// New lays out the code for every type and returns a generator. Layout
// construction is deterministic in Params, and trace generation is
// deterministic in (Params, transaction index), so two generators with
// identical Params produce byte-identical sets.
func New(p Params) *Workload {
	p = p.withDefaults()
	l := codegen.NewLayout()
	w := &Workload{
		p:      p,
		layout: l,
		rng:    xrand.New(p.Seed ^ 0x5717),
		salt:   xrand.Hash64(p.Seed ^ 0x5717AB),
	}
	target := int(p.FootprintUnits * float64(codegen.L1IUnitBlocks))
	if target < 16 {
		target = 16 // at least one 1KB root function
	}
	w.names = TypeNames(p.Types)
	for t := 0; t < p.Types; t++ {
		name := w.names[t]
		tt := txnType{root: l.AddFunc(fmt.Sprintf("synth.%s.root", name), 1, 0, 0)}
		touched := l.Func(tt.root).TouchedBlocks()
		for i := 0; touched < target; i++ {
			remain := target - touched
			var id codegen.FuncID
			if remain >= 20*1024/codegen.BlockBytes {
				// Interior chunk: fixed size with variant paths, so
				// same-type transactions overlap partially, not totally.
				id = l.AddFunc(fmt.Sprintf("synth.%s.f%d", name, i), chunkKB, chunkGroups, chunkVarFrac)
			} else {
				// Final chunk: no variants, so touched == static blocks
				// and the footprint lands on target exactly (±1KB).
				kb := (remain*codegen.BlockBytes + 1023) / 1024
				id = l.AddFunc(fmt.Sprintf("synth.%s.f%d", name, i), kb, 0, 0)
			}
			tt.body = append(tt.body, id)
			touched += l.Func(id).TouchedBlocks()
		}
		w.types = append(w.types, tt)
	}
	w.hotBase = codegen.DataBase
	w.privBase = codegen.DataBase + hotBlocks
	return w
}

// TypeNames returns the labels of an n-type synthetic workload
// ("Syn0".."Syn<n-1>"); the registry uses this for metadata without
// constructing a layout.
func TypeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Syn%d", i)
	}
	return out
}

// Params returns the effective (default-filled) parameters.
func (w *Workload) Params() Params { return w.p }

// Name identifies the workload, encoding the two axes that matter for
// interpreting results.
func (w *Workload) Name() string {
	return fmt.Sprintf("Synth-%su-%dt", strconv.FormatFloat(w.p.FootprintUnits, 'g', -1, 64), w.p.Types)
}

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return append([]string(nil), w.names...) }

// NumTypes returns the number of transaction types.
func (w *Workload) NumTypes() int { return len(w.types) }

// CodeBlocks returns the total laid-out instruction blocks.
func (w *Workload) CodeBlocks() int { return w.layout.CodeBlocks() }

// Generate implements workload.Generator: a uniform mix over the types.
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n, func() int { return w.rng.Intn(len(w.types)) })
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID < 0 || typeID >= len(w.types) {
		panic(fmt.Sprintf("synth: bad type %d", typeID))
	}
	return w.generate(n, func() int { return typeID })
}

func (w *Workload) generate(n int, pick func() int) *workload.Set {
	set := &workload.Set{
		Name:   w.Name(),
		Types:  w.TypeNames(),
		Layout: w.layout,
	}
	var scratch trace.Buffer
	for i := 0; i < n; i++ {
		typ := pick()
		scratch.Reset()
		w.run(typ, uint64(i), &scratch)
		set.Txns = append(set.Txns, &workload.Txn{
			ID:     i,
			Type:   typ,
			Header: w.layout.Func(w.types[typ].root).Base,
			Trace:  scratch.Clone(),
		})
	}
	set.DataBlocks = hotBlocks + privSlots*privBlocks
	return set
}

// run emits one transaction: the type's whole code chain, with data
// accesses interleaved between function calls. Everything is derived
// from (salt, id), never from mutable generator state, so replaying the
// same index always yields the same trace.
func (w *Workload) run(typ int, id uint64, buf *trace.Buffer) {
	em := codegen.Emitter{L: w.layout, Buf: buf}
	tt := &w.types[typ]
	key := w.salt ^ id*0x9E3779B97F4A7C15
	em.Call(tt.root, key)
	priv := w.privBase + uint32(id%privSlots)*privBlocks
	perCall := w.p.DataPerTxn / (len(tt.body) + 1)
	if perCall < 1 {
		perCall = 1
	}
	emitted := 0
	data := func(seq int) {
		h := xrand.Hash64(key + uint64(seq)*0xA24B)
		write := h%4 == 0
		if float64(h%1000)/1000 < w.p.DataReuse {
			em.Data(w.hotBase+uint32(h>>10)%hotBlocks, write)
		} else {
			em.Data(priv+uint32(h>>10)%privBlocks, write)
		}
	}
	for i, fn := range tt.body {
		em.Call(fn, key^uint64(i)*0x1F3)
		for j := 0; j < perCall && emitted < w.p.DataPerTxn; j++ {
			data(emitted)
			emitted++
		}
	}
	for ; emitted < w.p.DataPerTxn; emitted++ {
		data(emitted)
	}
}
