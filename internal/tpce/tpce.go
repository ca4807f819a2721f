// Package tpce generates a TPC-E-style brokerage workload against the
// internal/db storage manager. It implements the seven transaction types
// the paper's Table 3 profiles — Broker (volume), Customer (position),
// Market (feed/watch), Security (detail), Trade Status, Trade Update and
// Trade Lookup — with instruction footprints calibrated to that table
// (in 32KB L1-I units): Broker 7, Customer 9, Market 9, Security 5,
// Tr_Stat 9, Tr_Upd 8, Tr_Look 8. TPC-E footprints are smaller than
// TPC-C's, which is why the paper's hybrid switches to SLICC at 8 cores
// for TPC-E but only at 16 for TPC-C.
package tpce

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/db"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Transaction type identifiers, in Table 3 order.
const (
	TBroker = iota
	TCustomer
	TMarket
	TSecurity
	TTradeStatus
	TTradeUpdate
	TTradeLookup
	numTypes
)

var typeNames = []string{"Broker", "Customer", "Market", "Security", "Tr_Stat", "Tr_Upd", "Tr_Look"}

// Scaled-down schema cardinalities.
const (
	customers     = 1000
	brokers       = 25
	securities    = 400
	acctsPerCust  = 2
	initialTrades = 6000
	tradesPerAcct = initialTrades / (customers * acctsPerCust)
)

// Config parameterizes a TPC-E instance.
type Config struct {
	Seed uint64
}

// Workload is a populated TPC-E database plus its generators.
type Workload struct {
	cfg   Config
	db    *db.Database
	stmts stmts
	rng   *xrand.RNG

	nextTrade int64
	// trades by account: acctKey -> trade ids (most recent last)
	acctTrades map[int64][]int64
	// trades by broker
	brokerTrades map[int64][]int64

	customer, account, broker, security, tradeIdx, tradeByAcct *db.BTree
	custT, acctT, brokerT, secT, tradeT                        *db.Table
}

type stmts struct {
	root [numTypes]codegen.FuncID

	brkVolume, brkScan            codegen.FuncID
	custPos, custAccts, custValue codegen.FuncID
	mktFeed, mktUpdate, mktWatch  codegen.FuncID
	secDetail                     codegen.FuncID
	tsFind, tsScan                codegen.FuncID
	tuFind, tuUpdate              codegen.FuncID
	tlFind, tlRead                codegen.FuncID
	sharedGetCust, sharedGetSec   codegen.FuncID
}

func registerStmts(l *codegen.Layout) stmts {
	var s stmts
	for i := 0; i < numTypes; i++ {
		s.root[i] = l.AddFunc("tpce."+typeNames[i]+".root", 6, 2, 0.25)
	}
	s.sharedGetCust = l.AddFunc("tpce.shared.get_cust", 20, 4, 0.3)
	s.sharedGetSec = l.AddFunc("tpce.shared.get_sec", 20, 4, 0.3)

	s.brkVolume = l.AddFunc("tpce.brk.volume", 36, 4, 0.3)
	s.brkScan = l.AddFunc("tpce.brk.scan_trades", 40, 6, 0.3)

	s.custPos = l.AddFunc("tpce.cust.position", 44, 4, 0.3)
	s.custAccts = l.AddFunc("tpce.cust.accounts", 40, 4, 0.3)
	s.custValue = l.AddFunc("tpce.cust.value", 48, 6, 0.3)

	s.mktFeed = l.AddFunc("tpce.mkt.feed", 48, 4, 0.3)
	s.mktUpdate = l.AddFunc("tpce.mkt.update", 48, 6, 0.3)
	s.mktWatch = l.AddFunc("tpce.mkt.watch", 40, 4, 0.3)

	s.secDetail = l.AddFunc("tpce.sec.detail", 44, 6, 0.3)

	s.tsFind = l.AddFunc("tpce.ts.find", 104, 4, 0.3)
	s.tsScan = l.AddFunc("tpce.ts.scan", 120, 6, 0.3)

	s.tuFind = l.AddFunc("tpce.tu.find", 48, 4, 0.3)
	s.tuUpdate = l.AddFunc("tpce.tu.update", 56, 6, 0.3)

	s.tlFind = l.AddFunc("tpce.tl.find", 48, 4, 0.3)
	s.tlRead = l.AddFunc("tpce.tl.read", 56, 6, 0.3)
	return s
}

// New populates a TPC-E database.
func New(cfg Config) *Workload {
	d := db.NewDatabase()
	w := &Workload{
		cfg:          cfg,
		db:           d,
		stmts:        registerStmts(d.Layout),
		rng:          xrand.New(cfg.Seed ^ 0x77CE),
		acctTrades:   make(map[int64][]int64),
		brokerTrades: make(map[int64][]int64),
	}
	w.createSchema()
	w.populate()
	return w
}

func (w *Workload) createSchema() {
	d := w.db
	w.customer = d.CreateIndex("i_customer")
	w.account = d.CreateIndex("i_account")
	w.broker = d.CreateIndex("i_broker")
	w.security = d.CreateIndex("i_security")
	w.tradeIdx = d.CreateIndex("i_trade")
	w.tradeByAcct = d.CreateIndex("i_trade_by_acct")

	w.custT = d.CreateTable("customer", 1)
	w.acctT = d.CreateTable("account", 2)
	w.brokerT = d.CreateTable("broker", 1)
	w.secT = d.CreateTable("security", 2)
	w.tradeT = d.CreateTable("trade", 4)
}

func acctKey(cust, acct int64) int64 { return cust<<8 | acct }

func (w *Workload) populate() {
	for b := int64(0); b < brokers; b++ {
		bt := w.brokerT.Insert(nil)
		w.broker.Insert(nil, b, bt)
	}
	for s := int64(0); s < securities; s++ {
		st := w.secT.Insert(nil)
		w.security.Insert(nil, s, st)
	}
	for c := int64(0); c < customers; c++ {
		ct := w.custT.Insert(nil)
		w.customer.Insert(nil, c, ct)
		for a := int64(0); a < acctsPerCust; a++ {
			at := w.acctT.Insert(nil)
			w.account.Insert(nil, acctKey(c, a), at)
			for t := 0; t < tradesPerAcct; t++ {
				w.placeTradeRaw(acctKey(c, a))
			}
		}
	}
}

func (w *Workload) placeTradeRaw(acct int64) int64 {
	tid := w.nextTrade
	w.nextTrade++
	tt := w.tradeT.Insert(nil)
	w.tradeIdx.Insert(nil, tid, tt)
	w.tradeByAcct.Insert(nil, acct<<32|tid, tt)
	w.acctTrades[acct] = append(w.acctTrades[acct], tid)
	b := int64(xrand.Hash64(uint64(tid)) % brokers)
	w.brokerTrades[b] = append(w.brokerTrades[b], tid)
	return tid
}

// DB exposes the underlying database.
func (w *Workload) DB() *db.Database { return w.db }

// Name implements workload.Generator.
func (w *Workload) Name() string { return "TPC-E" }

// TypeNames returns the transaction type labels (registry metadata).
func TypeNames() []string { return append([]string(nil), typeNames...) }

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return TypeNames() }

// NumTypes returns the number of transaction types.
func NumTypes() int { return numTypes }

// mixType approximates the TPC-E mix, normalized over the seven types we
// model: Trade Status and Market dominate; Trade Update is rare.
func (w *Workload) mixType() int {
	r := w.rng.Float64()
	switch {
	case r < 0.06:
		return TBroker
	case r < 0.22:
		return TCustomer
	case r < 0.45:
		return TMarket
	case r < 0.64:
		return TSecurity
	case r < 0.88:
		return TTradeStatus
	case r < 0.91:
		return TTradeUpdate
	default:
		return TTradeLookup
	}
}

// Generate implements workload.Generator.
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n, func() int { return w.mixType() })
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID < 0 || typeID >= numTypes {
		panic(fmt.Sprintf("tpce: bad type %d", typeID))
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
	case TBroker:
		w.brokerVolume(tx)
	case TCustomer:
		w.customerPosition(tx)
	case TMarket:
		w.marketFeed(tx)
	case TSecurity:
		w.securityDetail(tx)
	case TTradeStatus:
		w.tradeStatus(tx)
	case TTradeUpdate:
		w.tradeUpdate(tx)
	case TTradeLookup:
		w.tradeLookup(tx)
	default:
		panic("tpce: unknown type")
	}
	tx.Commit()
}

// brokerVolume: look up a broker, read a window of its trades.
func (w *Workload) brokerVolume(tx *db.Txn) {
	em := tx.Emit()
	b := int64(tx.RNG().Intn(brokers))
	em.Call(w.stmts.brkVolume, uint64(b))
	if bt, ok := w.broker.Lookup(tx, b); ok {
		w.brokerT.Read(tx, bt)
	}
	em.Call(w.stmts.brkScan, uint64(b))
	trades := w.brokerTrades[b]
	start := 0
	if len(trades) > 16 {
		start = tx.RNG().Intn(len(trades) - 16)
	}
	for i := start; i < len(trades) && i < start+16; i++ {
		if tt, ok := w.tradeIdx.Lookup(tx, trades[i]); ok {
			w.tradeT.Read(tx, tt)
		}
	}
}

// customerPosition: customer + accounts + per-account valuation.
func (w *Workload) customerPosition(tx *db.Txn) {
	em := tx.Emit()
	c := int64(tx.RNG().Intn(customers))
	em.Call(w.stmts.sharedGetCust, uint64(c))
	em.Call(w.stmts.custPos, uint64(c))
	if ct, ok := w.customer.Lookup(tx, c); ok {
		w.custT.Read(tx, ct)
	}
	em.Call(w.stmts.custAccts, uint64(c))
	for a := int64(0); a < acctsPerCust; a++ {
		ak := acctKey(c, a)
		if at, ok := w.account.Lookup(tx, ak); ok {
			w.acctT.Read(tx, at)
		}
		em.Call(w.stmts.custValue, uint64(ak))
		trades := w.acctTrades[ak]
		n := len(trades)
		for i := n - 4; i < n; i++ {
			if i < 0 {
				continue
			}
			if tt, ok := w.tradeIdx.Lookup(tx, trades[i]); ok {
				w.tradeT.Read(tx, tt)
			}
		}
	}
}

// marketFeed: a burst of last-trade-price updates across securities —
// the write-heavy type.
func (w *Workload) marketFeed(tx *db.Txn) {
	em := tx.Emit()
	em.Call(w.stmts.mktFeed, tx.ID())
	for i := 0; i < 8; i++ {
		s := int64(tx.RNG().Intn(securities))
		em.Call(w.stmts.sharedGetSec, uint64(s))
		em.Call(w.stmts.mktUpdate, uint64(s))
		if st, ok := w.security.Lookup(tx, s); ok {
			w.secT.Read(tx, st)
			w.secT.Update(tx, st)
		}
	}
	em.Call(w.stmts.mktWatch, tx.ID())
}

// securityDetail: the lightest type — one security, full detail read.
func (w *Workload) securityDetail(tx *db.Txn) {
	em := tx.Emit()
	s := int64(tx.RNG().Intn(securities))
	em.Call(w.stmts.sharedGetSec, uint64(s))
	em.Call(w.stmts.secDetail, uint64(s))
	if st, ok := w.security.Lookup(tx, s); ok {
		w.secT.Read(tx, st)
		w.secT.Read(tx, st)
	}
}

// tradeStatus: customer's account, scan its most recent trades.
func (w *Workload) tradeStatus(tx *db.Txn) {
	em := tx.Emit()
	c := int64(tx.RNG().Intn(customers))
	a := int64(tx.RNG().Intn(acctsPerCust))
	ak := acctKey(c, a)
	em.Call(w.stmts.sharedGetCust, uint64(c))
	em.Call(w.stmts.tsFind, uint64(ak))
	if at, ok := w.account.Lookup(tx, ak); ok {
		w.acctT.Read(tx, at)
	}
	em.Call(w.stmts.tsScan, uint64(ak))
	w.tradeByAcct.Scan(tx, ak<<32, 10, func(k, v int64) bool {
		if k>>32 != ak {
			return false
		}
		w.tradeT.Read(tx, v)
		return true
	})
}

// tradeUpdate: point-lookup N trades and modify each.
func (w *Workload) tradeUpdate(tx *db.Txn) {
	em := tx.Emit()
	em.Call(w.stmts.tuFind, tx.ID())
	for i := 0; i < 6; i++ {
		tid := int64(tx.RNG().Intn(int(w.nextTrade)))
		em.Call(w.stmts.tuUpdate, uint64(tid))
		if tt, ok := w.tradeIdx.Lookup(tx, tid); ok {
			w.tradeT.Read(tx, tt)
			w.tradeT.Update(tx, tt)
		}
	}
}

// tradeLookup: point-lookup N trades, read-only.
func (w *Workload) tradeLookup(tx *db.Txn) {
	em := tx.Emit()
	em.Call(w.stmts.tlFind, tx.ID())
	for i := 0; i < 8; i++ {
		tid := int64(tx.RNG().Intn(int(w.nextTrade)))
		em.Call(w.stmts.tlRead, uint64(tid))
		if tt, ok := w.tradeIdx.Lookup(tx, tid); ok {
			w.tradeT.Read(tx, tt)
		}
	}
}
