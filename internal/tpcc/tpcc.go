// Package tpcc generates TPC-C transactions against the internal/db
// storage manager. The schema, transaction logic and mix follow the
// TPC-C specification's shape (warehouses, districts, customers, orders,
// order lines, stock, history), scaled down so that experiments run in
// seconds rather than hours. The per-transaction-type *instruction*
// footprints are calibrated to the paper's Table 3 (in 32KB L1-I units):
// Delivery 12, New Order 14, Order Status 11, Payment 14, Stock Level 11.
//
// Two scale factors correspond to the paper's TPC-C-1 (1 warehouse,
// 84MB) and TPC-C-10 (10 warehouses, 1GB) workloads: the data footprint
// grows ~10x between them while the code footprint stays identical.
package tpcc

import (
	"fmt"
	"sort"

	"strex/internal/codegen"
	"strex/internal/db"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Transaction type identifiers, in the order of the paper's Figure 4.
const (
	TDelivery = iota
	TNewOrder
	TOrderStatus
	TPayment
	TStockLevel
	numTypes
)

// typeNames uses the paper's labels.
var typeNames = []string{"Delivery", "NewOrder", "OrderStatus", "Payment", "StockLevel"}

// Scaled-down schema cardinalities (per warehouse where applicable).
const (
	districtsPerWH  = 10
	custPerDistrict = 120
	items           = 1200
	initialOrders   = 24 // per district, pre-populated
	olPerOrder      = 10 // average; actual 5..15 per spec
)

// Config parameterizes a TPC-C instance.
type Config struct {
	Warehouses int
	Seed       uint64
}

// Workload is a populated TPC-C database plus its transaction generators.
type Workload struct {
	cfg   Config
	db    *db.Database
	stmts stmts
	rng   *xrand.RNG

	// per-(warehouse,district) order-id counters
	nextOID [][]int64
	// oldest undelivered NEW-ORDER id per (w,d)
	oldestNO [][]int64
	// last order placed per customer key (for Order-Status)
	lastOrder map[int64]int64
	// order -> line count
	olCount map[int64]int64

	wh, dist, cust, clast, order, neworder, ol, stock, item *db.BTree
	whT, distT, custT, orderT, olT, stockT, itemT, histT    *db.Table
}

// stmts holds the per-transaction-type statement functions. Their sizes,
// together with the storage-manager basic functions they invoke, realize
// the Table 3 footprints. Every type has an entry ("root") function whose
// base block is the transaction's header address for team grouping.
type stmts struct {
	root [numTypes]codegen.FuncID

	noGetCust, noInsOrd, noLoopItem, noLoopStock, noLoopOL, noFinish   codegen.FuncID
	payUpdWH, payUpdDist, payByName, payUpdCust, payInsHist, payFinish codegen.FuncID
	osFindCust, osLastOrder, osScanLines                               codegen.FuncID
	dlvFindNO, dlvUpdOrder, dlvUpdLines, dlvUpdCust                    codegen.FuncID
	slGetDist, slScanLines, slCheckStock                               codegen.FuncID
	sharedGetWH, sharedGetDist                                         codegen.FuncID
}

// registerStmts lays out the statement code. KB sizes are the
// calibration knobs for Table 3; see TestFootprintsMatchTable3.
func registerStmts(l *codegen.Layout) stmts {
	var s stmts
	// Entry points (small dispatch stubs, one per type).
	for i := 0; i < numTypes; i++ {
		s.root[i] = l.AddFunc("tpcc."+typeNames[i]+".root", 6, 2, 0.25)
	}
	// Code shared between New Order and Payment prefixes (both start by
	// probing Warehouse, District, Customer — Section 2.1's observation
	// about cross-type overlap).
	s.sharedGetWH = l.AddFunc("tpcc.shared.get_wh", 26, 4, 0.3)
	s.sharedGetDist = l.AddFunc("tpcc.shared.get_dist", 26, 4, 0.3)

	s.noGetCust = l.AddFunc("tpcc.no.get_cust", 30, 4, 0.3)
	s.noInsOrd = l.AddFunc("tpcc.no.insert_order", 40, 4, 0.3)
	s.noLoopItem = l.AddFunc("tpcc.no.item", 44, 6, 0.3)
	s.noLoopStock = l.AddFunc("tpcc.no.stock", 44, 6, 0.3)
	s.noLoopOL = l.AddFunc("tpcc.no.order_line", 44, 6, 0.3)
	s.noFinish = l.AddFunc("tpcc.no.finish", 26, 2, 0.25)

	s.payUpdWH = l.AddFunc("tpcc.pay.upd_wh", 56, 4, 0.3)
	s.payUpdDist = l.AddFunc("tpcc.pay.upd_dist", 56, 4, 0.3)
	s.payByName = l.AddFunc("tpcc.pay.cust_by_name", 64, 6, 0.3)
	s.payUpdCust = l.AddFunc("tpcc.pay.upd_cust", 88, 6, 0.3)
	s.payInsHist = l.AddFunc("tpcc.pay.ins_hist", 80, 4, 0.3)
	s.payFinish = l.AddFunc("tpcc.pay.finish", 44, 2, 0.25)

	s.osFindCust = l.AddFunc("tpcc.os.find_cust", 96, 6, 0.3)
	s.osLastOrder = l.AddFunc("tpcc.os.last_order", 96, 4, 0.3)
	s.osScanLines = l.AddFunc("tpcc.os.scan_lines", 128, 6, 0.3)

	s.dlvFindNO = l.AddFunc("tpcc.dlv.find_no", 56, 4, 0.3)
	s.dlvUpdOrder = l.AddFunc("tpcc.dlv.upd_order", 56, 4, 0.3)
	s.dlvUpdLines = l.AddFunc("tpcc.dlv.upd_lines", 64, 6, 0.3)
	s.dlvUpdCust = l.AddFunc("tpcc.dlv.upd_cust", 48, 4, 0.3)

	s.slGetDist = l.AddFunc("tpcc.sl.get_dist", 56, 4, 0.3)
	s.slScanLines = l.AddFunc("tpcc.sl.scan_lines", 80, 6, 0.3)
	s.slCheckStock = l.AddFunc("tpcc.sl.check_stock", 72, 6, 0.3)
	return s
}

// New populates a TPC-C database at the given scale.
func New(cfg Config) *Workload {
	if cfg.Warehouses <= 0 {
		panic("tpcc: need at least one warehouse")
	}
	d := db.NewDatabase()
	w := &Workload{
		cfg:       cfg,
		db:        d,
		stmts:     registerStmts(d.Layout),
		rng:       xrand.New(cfg.Seed ^ 0x79CC),
		lastOrder: make(map[int64]int64),
		olCount:   make(map[int64]int64),
	}
	w.createSchema()
	w.populate()
	return w
}

func (w *Workload) createSchema() {
	d := w.db
	w.wh = d.CreateIndex("i_warehouse")
	w.dist = d.CreateIndex("i_district")
	w.cust = d.CreateIndex("i_customer")
	w.clast = d.CreateIndex("i_customer_last")
	w.order = d.CreateIndex("i_order")
	w.neworder = d.CreateIndex("i_new_order")
	w.ol = d.CreateIndex("i_order_line")
	w.stock = d.CreateIndex("i_stock")
	w.item = d.CreateIndex("i_item")

	w.whT = d.CreateTable("warehouse", 1)
	w.distT = d.CreateTable("district", 2)
	w.custT = d.CreateTable("customer", 1)
	w.orderT = d.CreateTable("orders", 4)
	w.olT = d.CreateTable("order_line", 4)
	w.stockT = d.CreateTable("stock", 2)
	w.itemT = d.CreateTable("item", 4)
	w.histT = d.CreateTable("history", 8)
}

// Composite key helpers. w < 2^8, d < 2^8, rest < 2^40.
func keyWD(wid, did int, x int64) int64 {
	return int64(wid)<<56 | int64(did)<<48 | x
}

func keyW(wid int, x int64) int64 { return int64(wid)<<56 | x }

func olKey(wid, did int, oid int64, line int) int64 {
	return int64(wid)<<56 | int64(did)<<48 | oid<<8 | int64(line)
}

func (w *Workload) populate() {
	W := w.cfg.Warehouses
	w.nextOID = make([][]int64, W)
	w.oldestNO = make([][]int64, W)
	for i := int64(0); i < items; i++ {
		tid := w.itemT.Insert(nil)
		w.item.Insert(nil, i, tid)
	}
	for wid := 0; wid < W; wid++ {
		w.nextOID[wid] = make([]int64, districtsPerWH)
		w.oldestNO[wid] = make([]int64, districtsPerWH)
		wt := w.whT.Insert(nil)
		w.wh.Insert(nil, int64(wid), wt)
		for i := int64(0); i < items; i++ {
			st := w.stockT.Insert(nil)
			w.stock.Insert(nil, keyW(wid, i), st)
		}
		for did := 0; did < districtsPerWH; did++ {
			dt := w.distT.Insert(nil)
			w.dist.Insert(nil, keyWD(wid, did, 0), dt)
			for c := int64(0); c < custPerDistrict; c++ {
				ct := w.custT.Insert(nil)
				ck := keyWD(wid, did, c)
				w.cust.Insert(nil, ck, ct)
				// last-name index: 32 distinct names, so ~custPerDistrict/32
				// customers share a name (Payment's 60% by-name path scans them).
				name := int64(xrand.Hash64(uint64(c)) % 32)
				w.clast.Insert(nil, keyWD(wid, did, name<<16|c), ct)
			}
			for o := int64(0); o < initialOrders; o++ {
				w.placeOrderRaw(wid, did)
			}
		}
	}
}

// placeOrderRaw inserts an order with lines during population (untraced).
func (w *Workload) placeOrderRaw(wid, did int) {
	oid := w.nextOID[wid][did]
	w.nextOID[wid][did]++
	ot := w.orderT.Insert(nil)
	ok := keyWD(wid, did, oid)
	w.order.Insert(nil, ok, ot)
	w.neworder.Insert(nil, ok, ot)
	lines := int64(5 + w.rng.Intn(11))
	w.olCount[ok] = lines
	for l := int64(0); l < lines; l++ {
		lt := w.olT.Insert(nil)
		w.ol.Insert(nil, olKey(wid, did, oid, int(l)), lt)
	}
	cid := int64(w.rng.Intn(custPerDistrict))
	w.lastOrder[keyWD(wid, did, cid)] = oid
}

// DB exposes the underlying database (experiments inspect code size).
func (w *Workload) DB() *db.Database { return w.db }

// Name implements workload.Generator.
func (w *Workload) Name() string { return fmt.Sprintf("TPC-C-%d", w.cfg.Warehouses) }

// TypeNames returns the transaction type labels (registry metadata).
func TypeNames() []string { return append([]string(nil), typeNames...) }

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return TypeNames() }

// NumTypes returns the number of transaction types.
func NumTypes() int { return numTypes }

// mix samples a transaction type from the TPC-C mix: ~45% New Order,
// 43% Payment, 4% each for the rest (the paper: New Order + Payment are
// 88% of the mix).
func (w *Workload) mixType() int {
	r := w.rng.Float64()
	switch {
	case r < 0.45:
		return TNewOrder
	case r < 0.88:
		return TPayment
	case r < 0.92:
		return TOrderStatus
	case r < 0.96:
		return TDelivery
	default:
		return TStockLevel
	}
}

// Generate implements workload.Generator.
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n, func() int { return w.mixType() })
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID < 0 || typeID >= numTypes {
		panic(fmt.Sprintf("tpcc: bad type %d", typeID))
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

// run executes one transaction of the given type, appending its trace.
func (w *Workload) run(typ int, id uint64, buf *trace.Buffer) {
	tx := w.db.Begin(id, buf)
	tx.Emit().Call(w.stmts.root[typ], id)
	switch typ {
	case TNewOrder:
		w.newOrder(tx)
	case TPayment:
		w.payment(tx)
	case TOrderStatus:
		w.orderStatus(tx)
	case TDelivery:
		w.delivery(tx)
	case TStockLevel:
		w.stockLevel(tx)
	default:
		panic("tpcc: unknown type")
	}
	tx.Commit()
}

func (w *Workload) pickWD(tx *db.Txn) (int, int) {
	return tx.RNG().Intn(w.cfg.Warehouses), tx.RNG().Intn(districtsPerWH)
}

// newOrder follows the Figure 1 flow: R(WH), R(DIST)+U, R(CUST),
// I(ORDER), I(NO), then the OL_CNT loop of R(ITEM), R(S)+U(S), I(OL).
func (w *Workload) newOrder(tx *db.Txn) {
	em := tx.Emit()
	rng := tx.RNG()
	wid, did := w.pickWD(tx)

	em.Call(w.stmts.sharedGetWH, uint64(wid))
	if wt, ok := w.wh.Lookup(tx, int64(wid)); ok {
		w.whT.Read(tx, wt)
	}
	em.Call(w.stmts.sharedGetDist, uint64(wid*16+did))
	if dt, ok := w.dist.Lookup(tx, keyWD(wid, did, 0)); ok {
		w.distT.Read(tx, dt)
		w.distT.Update(tx, dt) // D_NEXT_O_ID++
	}
	cid := int64(rng.NURand(1023, 0, custPerDistrict-1))
	em.Call(w.stmts.noGetCust, uint64(cid))
	if ct, ok := w.cust.Lookup(tx, keyWD(wid, did, cid)); ok {
		w.custT.Read(tx, ct)
	}

	oid := w.nextOID[wid][did]
	w.nextOID[wid][did]++
	ok := keyWD(wid, did, oid)
	em.Call(w.stmts.noInsOrd, uint64(oid))
	ot := w.orderT.Insert(tx)
	w.order.Insert(tx, ok, ot)
	w.neworder.Insert(tx, ok, ot)
	w.lastOrder[keyWD(wid, did, cid)] = oid

	lines := 5 + rng.Intn(11)
	w.olCount[ok] = int64(lines)
	for l := 0; l < lines; l++ {
		iid := int64(rng.NURand(8191, 0, items-1))
		em.Call(w.stmts.noLoopItem, uint64(iid))
		if it, found := w.item.Lookup(tx, iid); found {
			w.itemT.Read(tx, it)
		}
		// 1% of orders use a remote warehouse for one line (spec flavor).
		swid := wid
		if w.cfg.Warehouses > 1 && rng.OneIn(100) {
			swid = rng.Intn(w.cfg.Warehouses)
		}
		em.Call(w.stmts.noLoopStock, uint64(iid)^uint64(swid))
		if st, found := w.stock.Lookup(tx, keyW(swid, iid)); found {
			w.stockT.Read(tx, st)
			w.stockT.Update(tx, st)
		}
		em.Call(w.stmts.noLoopOL, uint64(oid)<<8|uint64(l))
		lt := w.olT.Insert(tx)
		w.ol.Insert(tx, olKey(wid, did, oid, l), lt)
	}
	em.Call(w.stmts.noFinish, uint64(oid))
}

// payment: U(WH), U(DIST), R/IT(CUST), U(CUST), I(HIST).
func (w *Workload) payment(tx *db.Txn) {
	em := tx.Emit()
	rng := tx.RNG()
	wid, did := w.pickWD(tx)

	em.Call(w.stmts.sharedGetWH, uint64(wid))
	em.Call(w.stmts.payUpdWH, uint64(wid))
	if wt, ok := w.wh.Lookup(tx, int64(wid)); ok {
		w.whT.Read(tx, wt)
		w.whT.Update(tx, wt)
	}
	em.Call(w.stmts.sharedGetDist, uint64(wid*16+did))
	em.Call(w.stmts.payUpdDist, uint64(did))
	if dt, ok := w.dist.Lookup(tx, keyWD(wid, did, 0)); ok {
		w.distT.Update(tx, dt)
	}

	var ct int64
	found := false
	if rng.Bool(0.60) {
		// By last name: scan the name's customers, pick the middle one
		// (the conditional IT(CUST) action in Figure 1).
		name := int64(rng.Intn(32))
		em.Call(w.stmts.payByName, uint64(name))
		var tids []int64
		w.clast.Scan(tx, keyWD(wid, did, name<<16), custPerDistrict/16, func(k, v int64) bool {
			if (k>>16)&0xFFFFFFFF != uint642int64(uint64(name)) {
				return false
			}
			tids = append(tids, v)
			return true
		})
		if len(tids) > 0 {
			ct = tids[len(tids)/2]
			found = true
		}
	}
	if !found {
		cid := int64(rng.NURand(1023, 0, custPerDistrict-1))
		if v, ok := w.cust.Lookup(tx, keyWD(wid, did, cid)); ok {
			ct = v
			found = true
		}
	}
	em.Call(w.stmts.payUpdCust, uint64(ct))
	if found {
		w.custT.Read(tx, ct)
		w.custT.Update(tx, ct)
	}
	em.Call(w.stmts.payInsHist, tx.ID())
	w.histT.Insert(tx)
	em.Call(w.stmts.payFinish, tx.ID())
}

func uint642int64(v uint64) int64 { return int64(v) }

// orderStatus: R(CUST) (by id or name), find last order, scan its lines.
func (w *Workload) orderStatus(tx *db.Txn) {
	em := tx.Emit()
	rng := tx.RNG()
	wid, did := w.pickWD(tx)
	cid := int64(rng.NURand(1023, 0, custPerDistrict-1))
	em.Call(w.stmts.osFindCust, uint64(cid))
	if ct, ok := w.cust.Lookup(tx, keyWD(wid, did, cid)); ok {
		w.custT.Read(tx, ct)
	}
	em.Call(w.stmts.osLastOrder, uint64(cid))
	oid, ok := w.lastOrder[keyWD(wid, did, cid)]
	if !ok {
		oid = w.nextOID[wid][did] - 1 // fall back to the district's latest
	}
	okey := keyWD(wid, did, oid)
	if ot, found := w.order.Lookup(tx, okey); found {
		w.orderT.Read(tx, ot)
	}
	em.Call(w.stmts.osScanLines, uint64(oid))
	lines := w.olCount[okey]
	if lines == 0 {
		lines = olPerOrder
	}
	w.ol.Scan(tx, olKey(wid, did, oid, 0), int(lines), func(k, v int64) bool {
		w.olT.Read(tx, v)
		return true
	})
}

// delivery: for each district, pop the oldest NEW-ORDER, update the
// order, its lines and the customer (the paper's heaviest transaction).
func (w *Workload) delivery(tx *db.Txn) {
	em := tx.Emit()
	wid := tx.RNG().Intn(w.cfg.Warehouses)
	for did := 0; did < districtsPerWH; did++ {
		em.Call(w.stmts.dlvFindNO, uint64(wid*16+did))
		oldest := w.oldestNO[wid][did]
		if oldest >= w.nextOID[wid][did] {
			continue // no undelivered order in this district
		}
		okey := keyWD(wid, did, oldest)
		if !w.neworder.Delete(tx, okey) {
			w.oldestNO[wid][did]++
			continue
		}
		w.oldestNO[wid][did]++
		em.Call(w.stmts.dlvUpdOrder, uint64(oldest))
		if ot, found := w.order.Lookup(tx, okey); found {
			w.orderT.Update(tx, ot)
		}
		em.Call(w.stmts.dlvUpdLines, uint64(oldest))
		lines := w.olCount[okey]
		if lines == 0 {
			lines = olPerOrder
		}
		w.ol.Scan(tx, olKey(wid, did, oldest, 0), int(lines), func(k, v int64) bool {
			w.olT.Update(tx, v)
			return true
		})
		em.Call(w.stmts.dlvUpdCust, uint64(oldest))
		cid := int64(tx.RNG().Intn(custPerDistrict))
		if ct, found := w.cust.Lookup(tx, keyWD(wid, did, cid)); found {
			w.custT.Update(tx, ct)
		}
	}
}

// stockLevel: R(DIST), scan the last 20 orders' lines, check each item's
// stock quantity.
func (w *Workload) stockLevel(tx *db.Txn) {
	em := tx.Emit()
	wid, did := w.pickWD(tx)
	em.Call(w.stmts.slGetDist, uint64(wid*16+did))
	if dt, ok := w.dist.Lookup(tx, keyWD(wid, did, 0)); ok {
		w.distT.Read(tx, dt)
	}
	latest := w.nextOID[wid][did]
	from := latest - 20
	if from < 0 {
		from = 0
	}
	em.Call(w.stmts.slScanLines, uint64(latest))
	seen := make(map[int64]bool)
	w.ol.Scan(tx, olKey(wid, did, from, 0), 60, func(k, v int64) bool {
		w.olT.Read(tx, v)
		iid := int64(xrand.Hash64(uint64(k)) % items)
		seen[iid] = true
		return true
	})
	em.Call(w.stmts.slCheckStock, uint64(len(seen)))
	// Probe stock in sorted item order: map iteration order is not
	// deterministic and trace generation must be.
	iids := make([]int64, 0, len(seen))
	for iid := range seen {
		iids = append(iids, iid)
	}
	sort.Slice(iids, func(i, j int) bool { return iids[i] < iids[j] })
	if len(iids) > 12 {
		iids = iids[:12] // bound the probe count
	}
	for _, iid := range iids {
		if st, ok := w.stock.Lookup(tx, keyW(wid, iid)); ok {
			w.stockT.Read(tx, st)
		}
	}
}
