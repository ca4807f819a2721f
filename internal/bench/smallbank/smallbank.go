// Package smallbank generates a SmallBank workload against the
// internal/db storage manager: a checking/savings bank with six tiny
// transaction types (Balance, DepositChecking, TransactSavings,
// Amalgamate, WriteCheck, SendPayment), each touching one or two
// customers' rows.
//
// SmallBank is the deliberate stress case for STREX. It is built on
// the storage manager's *lite* kernel (db.KernelLite — the one-shot/
// stored-procedure code specialization) with minimal statement code,
// so per-type instruction footprints, calibrated in 32KB L1-I units
// like internal/tpcc's Table 3, are all below one unit: Balance 0.7,
// DepositChecking 0.8, TransactSavings 0.8, WriteCheck 0.9,
// SendPayment 0.9, Amalgamate 0.9. Every transaction's code fits the
// L1-I outright, so the baseline barely misses and stratification has
// almost nothing to eliminate while its context switches still cost
// cycles — the regime where the paper expects STREX to stop paying
// (Section 2: the win requires footprints "larger than the L1-I").
package smallbank

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/db"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Transaction type identifiers.
const (
	TBalance = iota
	TDepositChecking
	TTransactSavings
	TAmalgamate
	TWriteCheck
	TSendPayment
	numTypes
)

var typeNames = []string{
	"Balance", "DepositChk", "TransactSav", "Amalgamate", "WriteCheck", "SendPayment",
}

// TypeNames returns the transaction type labels (registry metadata).
func TypeNames() []string { return append([]string(nil), typeNames...) }

// NumTypes returns the number of transaction types.
func NumTypes() int { return numTypes }

const (
	defaultCustomers = 1000
	// minCustomers keeps the hot-set split (Customers/4) and the
	// two-party transactions well-defined at tiny scales.
	minCustomers = 8
)

// Config parameterizes a SmallBank instance.
type Config struct {
	Customers int // default 1000, floor 8
	Seed      uint64
}

// Workload is a populated SmallBank database plus its generators.
type Workload struct {
	cfg   Config
	db    *db.Database
	stmts stmts
	rng   *xrand.RNG

	sav, chk   *db.BTree
	savT, chkT *db.Table
}

type stmts struct {
	root [numTypes]codegen.FuncID

	// One small statement function per type plus a shared helper;
	// SmallBank's footprint is supposed to be infrastructure-dominated.
	balRead                      codegen.FuncID
	dcUpd, tsUpd                 codegen.FuncID
	amgMove, wcCheck, spTransfer codegen.FuncID
	sharedApply                  codegen.FuncID
}

// registerStmts lays out the statement code; sizes are deliberately
// tiny (see the package comment's calibration targets).
func registerStmts(l *codegen.Layout) stmts {
	var s stmts
	for i := 0; i < numTypes; i++ {
		s.root[i] = l.AddFunc("sb."+typeNames[i]+".root", 1, 0, 0)
	}
	s.sharedApply = l.AddFunc("sb.shared.apply_delta", 3, 2, 0.3)

	s.balRead = l.AddFunc("sb.bal.read_both", 2, 2, 0.3)
	s.dcUpd = l.AddFunc("sb.dc.upd_checking", 2, 2, 0.3)
	s.tsUpd = l.AddFunc("sb.ts.upd_savings", 2, 2, 0.3)
	s.amgMove = l.AddFunc("sb.amg.move_funds", 3, 2, 0.3)
	s.wcCheck = l.AddFunc("sb.wc.check_funds", 3, 2, 0.3)
	s.spTransfer = l.AddFunc("sb.sp.transfer", 3, 2, 0.3)
	return s
}

// New populates a SmallBank database.
func New(cfg Config) *Workload {
	if cfg.Customers <= 0 {
		cfg.Customers = defaultCustomers
	}
	if cfg.Customers < minCustomers {
		cfg.Customers = minCustomers
	}
	d := db.NewDatabaseKernel(db.KernelLite)
	w := &Workload{
		cfg:   cfg,
		db:    d,
		stmts: registerStmts(d.Layout),
		rng:   xrand.New(cfg.Seed ^ 0x5BA2),
	}
	w.createSchema()
	w.populate()
	return w
}

func (w *Workload) createSchema() {
	d := w.db
	w.sav = d.CreateIndex("i_savings")
	w.chk = d.CreateIndex("i_checking")

	w.savT = d.CreateTable("savings", 4)
	w.chkT = d.CreateTable("checking", 4)
}

func (w *Workload) populate() {
	for c := int64(0); c < int64(w.cfg.Customers); c++ {
		st := w.savT.Insert(nil)
		w.sav.Insert(nil, c, st)
		ct := w.chkT.Insert(nil)
		w.chk.Insert(nil, c, ct)
	}
}

// DB exposes the underlying database.
func (w *Workload) DB() *db.Database { return w.db }

// Name implements workload.Generator.
func (w *Workload) Name() string { return "SmallBank" }

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return TypeNames() }

// mixType samples the H-Store SmallBank mix: 25% SendPayment, 15% each
// for the other five types.
func (w *Workload) mixType() int {
	r := w.rng.Float64()
	switch {
	case r < 0.15:
		return TBalance
	case r < 0.30:
		return TDepositChecking
	case r < 0.45:
		return TTransactSavings
	case r < 0.60:
		return TAmalgamate
	case r < 0.75:
		return TWriteCheck
	default:
		return TSendPayment
	}
}

// Generate implements workload.Generator.
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n, func() int { return w.mixType() })
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID < 0 || typeID >= numTypes {
		panic(fmt.Sprintf("smallbank: bad type %d", typeID))
	}
	return w.generate(n, func() int { return typeID })
}

func (w *Workload) generate(n int, pick func() int) *workload.Set {
	set := &workload.Set{
		Name:   w.Name(),
		Types:  w.TypeNames(),
		Layout: w.db.Layout,
	}
	var scratch trace.Buffer
	for i := 0; i < n; i++ {
		typ := pick()
		scratch.Reset()
		w.run(typ, uint64(i)+w.cfg.Seed<<20, &scratch)
		set.Txns = append(set.Txns, &workload.Txn{
			ID:     i,
			Type:   typ,
			Header: w.db.Layout.Func(w.stmts.root[typ]).Base,
			Trace:  scratch.Clone(),
		})
	}
	set.DataBlocks = w.db.DataBlocks()
	return set
}

func (w *Workload) run(typ int, id uint64, buf *trace.Buffer) {
	tx := w.db.Begin(id, buf)
	tx.Emit().Call(w.stmts.root[typ], id)
	switch typ {
	case TBalance:
		w.balance(tx)
	case TDepositChecking:
		w.depositChecking(tx)
	case TTransactSavings:
		w.transactSavings(tx)
	case TAmalgamate:
		w.amalgamate(tx)
	case TWriteCheck:
		w.writeCheck(tx)
	case TSendPayment:
		w.sendPayment(tx)
	default:
		panic("smallbank: unknown type")
	}
	tx.Commit()
}

// pickCust draws a customer id; SmallBank skews 90% of accesses to a
// 25% hot set of customers.
func (w *Workload) pickCust(tx *db.Txn) int64 {
	rng := tx.RNG()
	n := w.cfg.Customers
	if rng.Bool(0.90) {
		return int64(rng.Intn(n / 4))
	}
	return int64(n/4 + rng.Intn(n-n/4))
}

// balance: read both balances of one customer.
func (w *Workload) balance(tx *db.Txn) {
	em := tx.Emit()
	c := w.pickCust(tx)
	em.Call(w.stmts.balRead, uint64(c))
	if st, ok := w.sav.Lookup(tx, c); ok {
		w.savT.Read(tx, st)
	}
	if ct, ok := w.chk.Lookup(tx, c); ok {
		w.chkT.Read(tx, ct)
	}
}

// depositChecking: add to one checking balance.
func (w *Workload) depositChecking(tx *db.Txn) {
	em := tx.Emit()
	c := w.pickCust(tx)
	em.Call(w.stmts.dcUpd, uint64(c))
	em.Call(w.stmts.sharedApply, uint64(c))
	if ct, ok := w.chk.Lookup(tx, c); ok {
		w.chkT.Read(tx, ct)
		w.chkT.Update(tx, ct)
	}
}

// transactSavings: add to one savings balance.
func (w *Workload) transactSavings(tx *db.Txn) {
	em := tx.Emit()
	c := w.pickCust(tx)
	em.Call(w.stmts.tsUpd, uint64(c))
	em.Call(w.stmts.sharedApply, uint64(c))
	if st, ok := w.sav.Lookup(tx, c); ok {
		w.savT.Read(tx, st)
		w.savT.Update(tx, st)
	}
}

// amalgamate: move customer A's savings+checking into customer B's
// checking.
func (w *Workload) amalgamate(tx *db.Txn) {
	em := tx.Emit()
	a, b := w.pickTwo(tx)
	em.Call(w.stmts.amgMove, uint64(a))
	if st, ok := w.sav.Lookup(tx, a); ok {
		w.savT.Read(tx, st)
		w.savT.Update(tx, st)
	}
	if ct, ok := w.chk.Lookup(tx, a); ok {
		w.chkT.Read(tx, ct)
		w.chkT.Update(tx, ct)
	}
	em.Call(w.stmts.sharedApply, uint64(b))
	if ct, ok := w.chk.Lookup(tx, b); ok {
		w.chkT.Update(tx, ct)
	}
}

// writeCheck: read both balances, then debit checking (possibly with an
// overdraft penalty — same code path either way).
func (w *Workload) writeCheck(tx *db.Txn) {
	em := tx.Emit()
	c := w.pickCust(tx)
	em.Call(w.stmts.wcCheck, uint64(c))
	if st, ok := w.sav.Lookup(tx, c); ok {
		w.savT.Read(tx, st)
	}
	em.Call(w.stmts.sharedApply, uint64(c))
	if ct, ok := w.chk.Lookup(tx, c); ok {
		w.chkT.Read(tx, ct)
		w.chkT.Update(tx, ct)
	}
}

// sendPayment: move funds between two customers' checking accounts.
func (w *Workload) sendPayment(tx *db.Txn) {
	em := tx.Emit()
	a, b := w.pickTwo(tx)
	em.Call(w.stmts.spTransfer, uint64(a)<<16|uint64(b))
	if ct, ok := w.chk.Lookup(tx, a); ok {
		w.chkT.Read(tx, ct)
		w.chkT.Update(tx, ct)
	}
	em.Call(w.stmts.sharedApply, uint64(b))
	if ct, ok := w.chk.Lookup(tx, b); ok {
		w.chkT.Read(tx, ct)
		w.chkT.Update(tx, ct)
	}
}

// pickTwo draws two distinct customers.
func (w *Workload) pickTwo(tx *db.Txn) (int64, int64) {
	a := w.pickCust(tx)
	b := w.pickCust(tx)
	for b == a {
		b = int64(tx.RNG().Intn(w.cfg.Customers))
	}
	return a, b
}
