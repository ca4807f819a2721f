// Package voter generates a Voter workload (the H-Store/VoltDB
// telephone-voting benchmark) against the internal/db storage manager:
// a single Vote transaction type executed at very high rates —
// validate the contestant, enforce the caller's vote limit, insert the
// vote and bump the contestant's tally.
//
// Voter probes the degenerate end of STREX's team-formation spectrum:
// with one transaction type, *every* pool window is a perfect team, so
// stratification pays exactly its per-type footprint — calibrated here
// (in 32KB L1-I units) to 5, comfortably above one L1-I — with zero
// formation slack. It is the mirror image of SmallBank: formation is
// trivial but the footprint is large enough that STREX should win.
package voter

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/db"
	"strex/internal/trace"
	"strex/internal/workload"
)

// TVote is the single transaction type.
const (
	TVote = iota
	numTypes
)

var typeNames = []string{"Vote"}

// TypeNames returns the transaction type labels (registry metadata).
func TypeNames() []string { return append([]string(nil), typeNames...) }

// NumTypes returns the number of transaction types.
func NumTypes() int { return numTypes }

// Scaled-down cardinalities.
const (
	contestants    = 25
	defaultPhones  = 5000
	maxVotesPerNbr = 10
)

// Config parameterizes a Voter instance.
type Config struct {
	Phones int // distinct caller numbers (default 5000)
	Seed   uint64
}

// Workload is a populated Voter database plus its generators. With a
// single transaction type there is no mix to sample, so all randomness
// comes from the per-transaction RNG streams.
type Workload struct {
	cfg   Config
	db    *db.Database
	stmts stmts

	votesByNbr map[int64]int
	nextVote   int64

	cont, phone, vote    *db.BTree
	contT, phoneT, voteT *db.Table
}

type stmts struct {
	root                       codegen.FuncID
	vtValidate, vtLimit        codegen.FuncID
	vtInsert, vtTally, vtStats codegen.FuncID
}

// registerStmts lays out the Vote statement code; sizes calibrate the
// package comment's 5-unit footprint.
func registerStmts(l *codegen.Layout) stmts {
	return stmts{
		root:       l.AddFunc("voter.Vote.root", 4, 2, 0.25),
		vtValidate: l.AddFunc("voter.vt.validate_contestant", 10, 4, 0.3),
		vtLimit:    l.AddFunc("voter.vt.check_limit", 12, 4, 0.3),
		vtInsert:   l.AddFunc("voter.vt.insert_vote", 18, 6, 0.3),
		vtTally:    l.AddFunc("voter.vt.bump_tally", 10, 4, 0.3),
		vtStats:    l.AddFunc("voter.vt.update_stats", 8, 4, 0.3),
	}
}

// New populates a Voter database.
func New(cfg Config) *Workload {
	if cfg.Phones <= 0 {
		cfg.Phones = defaultPhones
	}
	d := db.NewDatabase()
	w := &Workload{
		cfg:        cfg,
		db:         d,
		stmts:      registerStmts(d.Layout),
		votesByNbr: make(map[int64]int),
	}
	w.createSchema()
	w.populate()
	return w
}

func (w *Workload) createSchema() {
	d := w.db
	w.cont = d.CreateIndex("i_contestant")
	w.phone = d.CreateIndex("i_phone")
	w.vote = d.CreateIndex("i_vote")

	w.contT = d.CreateTable("contestant", 1)
	w.phoneT = d.CreateTable("phone", 4)
	w.voteT = d.CreateTable("votes", 8)
}

func (w *Workload) populate() {
	for c := int64(0); c < contestants; c++ {
		ct := w.contT.Insert(nil)
		w.cont.Insert(nil, c, ct)
	}
	for p := int64(0); p < int64(w.cfg.Phones); p++ {
		pt := w.phoneT.Insert(nil)
		w.phone.Insert(nil, p, pt)
	}
}

// DB exposes the underlying database.
func (w *Workload) DB() *db.Database { return w.db }

// Name implements workload.Generator.
func (w *Workload) Name() string { return "Voter" }

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return TypeNames() }

// Generate implements workload.Generator. There is only one type.
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n)
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID != TVote {
		panic(fmt.Sprintf("voter: bad type %d", typeID))
	}
	return w.generate(n)
}

func (w *Workload) generate(n int) *workload.Set {
	set := &workload.Set{
		Name:   w.Name(),
		Types:  w.TypeNames(),
		Layout: w.db.Layout,
	}
	var scratch trace.Buffer
	for i := 0; i < n; i++ {
		scratch.Reset()
		w.run(uint64(i)+w.cfg.Seed<<20, &scratch)
		set.Txns = append(set.Txns, &workload.Txn{
			ID:     i,
			Type:   TVote,
			Header: w.db.Layout.Func(w.stmts.root).Base,
			Trace:  scratch.Clone(),
		})
	}
	set.DataBlocks = w.db.DataBlocks()
	return set
}

// run emits one Vote: validate contestant, enforce the per-number vote
// limit, insert the vote row, update the tally, refresh leaderboard
// stats.
func (w *Workload) run(id uint64, buf *trace.Buffer) {
	tx := w.db.Begin(id, buf)
	em := tx.Emit()
	em.Call(w.stmts.root, id)
	rng := tx.RNG()

	c := int64(rng.Intn(contestants))
	p := int64(rng.NURand(1023, 0, w.cfg.Phones-1))

	em.Call(w.stmts.vtValidate, uint64(c))
	ct, haveCont := w.cont.Lookup(tx, c)
	if haveCont {
		w.contT.Read(tx, ct)
	}
	em.Call(w.stmts.vtLimit, uint64(p))
	pt, havePhone := w.phone.Lookup(tx, p)
	if havePhone {
		w.phoneT.Read(tx, pt)
	}
	if w.votesByNbr[p] < maxVotesPerNbr {
		w.votesByNbr[p]++
		vid := w.nextVote
		w.nextVote++
		em.Call(w.stmts.vtInsert, uint64(vid))
		vt := w.voteT.Insert(tx)
		w.vote.Insert(tx, vid, vt)
		em.Call(w.stmts.vtTally, uint64(c))
		if haveCont {
			w.contT.Update(tx, ct)
		}
		em.Call(w.stmts.vtStats, uint64(c)<<16|uint64(p))
		if havePhone {
			w.phoneT.Update(tx, pt)
		}
	}
	tx.Commit()
}
