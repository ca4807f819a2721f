// Package tatp generates a TATP (Telecom Application Transaction
// Processing) workload against the internal/db storage manager. TATP
// models a home-location-register database: four tables keyed by
// subscriber id (Subscriber, AccessInfo, SpecialFacility,
// CallForwarding) and seven very short transaction types, ~80% of them
// read-only.
//
// TATP is not in the paper's evaluation; it extends the workload axis
// the paper's Table 3 spans. Per-type instruction footprints are
// calibrated (in 32KB L1-I units, like internal/tpcc's Table 3
// calibration) to sit *between* TPC-E's lightest types and TPC-C's
// heaviest: GetSubscriberData 4, GetNewDestination 5, GetAccessData 4,
// UpdateSubscriberData 5, UpdateLocation 4, InsertCallForwarding 5,
// DeleteCallForwarding 4. Every type exceeds one L1-I unit, so STREX
// is expected to win clearly (see TestFootprintsMatchCalibration) —
// mid-size footprints are in fact where the *relative* I-MPKI
// reduction peaks, since a team marches through the whole shared
// footprint in only a few L1-I-sized phases.
package tatp

import (
	"fmt"

	"strex/internal/codegen"
	"strex/internal/db"
	"strex/internal/trace"
	"strex/internal/workload"
	"strex/internal/xrand"
)

// Transaction type identifiers, in the standard TATP mix order.
const (
	TGetSubscriberData = iota
	TGetNewDestination
	TGetAccessData
	TUpdateSubscriberData
	TUpdateLocation
	TInsertCallForwarding
	TDeleteCallForwarding
	numTypes
)

var typeNames = []string{
	"GetSubData", "GetNewDest", "GetAccData",
	"UpdSubData", "UpdLocation", "InsCallFwd", "DelCallFwd",
}

// TypeNames returns the transaction type labels (registry metadata).
func TypeNames() []string { return append([]string(nil), typeNames...) }

// NumTypes returns the number of transaction types.
func NumTypes() int { return numTypes }

// Scaled-down schema cardinalities.
const (
	defaultSubscribers = 2000
	aiTypes            = 4 // access-info rows per subscriber: 1..aiTypes
	sfTypes            = 4 // special-facility rows per subscriber: 1..sfTypes
	cfStartTimes       = 3 // call-forwarding slots per facility: start 0, 8, 16
)

// Config parameterizes a TATP instance.
type Config struct {
	Subscribers int // default 2000 (the spec's scale unit is 100k)
	Seed        uint64
}

// Workload is a populated TATP database plus its generators.
type Workload struct {
	cfg   Config
	db    *db.Database
	stmts stmts
	rng   *xrand.RNG

	// cfPresent tracks which (sub, sfType, startTime) call-forwarding
	// rows currently exist, so inserts and deletes stay consistent.
	cfPresent map[int64]bool

	sub, ai, sf, cf     *db.BTree
	subT, aiT, sfT, cfT *db.Table
}

type stmts struct {
	root [numTypes]codegen.FuncID

	gsdFind, gsdRead          codegen.FuncID
	gndFindSF, gndScanCF      codegen.FuncID
	gadFind, gadRead          codegen.FuncID
	usdUpdBit, usdUpdSF       codegen.FuncID
	ulFindNbr, ulUpdLoc       codegen.FuncID
	icfFindSub, icfIns        codegen.FuncID
	dcfFind, dcfDel           codegen.FuncID
	sharedGetSub, sharedGetSF codegen.FuncID
}

// registerStmts lays out the statement code. KB sizes are the
// calibration knobs for the package-comment footprint targets; see
// TestFootprintsMatchCalibration.
func registerStmts(l *codegen.Layout) stmts {
	var s stmts
	for i := 0; i < numTypes; i++ {
		s.root[i] = l.AddFunc("tatp."+typeNames[i]+".root", 6, 2, 0.25)
	}
	// Shared prefixes: nearly every type starts by probing Subscriber,
	// and half of them continue into SpecialFacility — the cross-type
	// overlap structure Section 2.1 observes in Shore-MT.
	s.sharedGetSub = l.AddFunc("tatp.shared.get_sub", 22, 4, 0.3)
	s.sharedGetSF = l.AddFunc("tatp.shared.get_sf", 20, 4, 0.3)

	s.gsdFind = l.AddFunc("tatp.gsd.find", 18, 4, 0.3)
	s.gsdRead = l.AddFunc("tatp.gsd.read_profile", 36, 6, 0.3)

	s.gndFindSF = l.AddFunc("tatp.gnd.find_sf", 24, 4, 0.3)
	s.gndScanCF = l.AddFunc("tatp.gnd.scan_cf", 40, 6, 0.3)

	s.gadFind = l.AddFunc("tatp.gad.find", 20, 4, 0.3)
	s.gadRead = l.AddFunc("tatp.gad.read_info", 34, 6, 0.3)

	s.usdUpdBit = l.AddFunc("tatp.usd.upd_bit", 26, 4, 0.3)
	s.usdUpdSF = l.AddFunc("tatp.usd.upd_sf", 30, 6, 0.3)

	s.ulFindNbr = l.AddFunc("tatp.ul.find_by_nbr", 30, 6, 0.3)
	s.ulUpdLoc = l.AddFunc("tatp.ul.upd_loc", 28, 4, 0.3)

	s.icfFindSub = l.AddFunc("tatp.icf.find_sub", 24, 4, 0.3)
	s.icfIns = l.AddFunc("tatp.icf.insert", 40, 6, 0.3)

	s.dcfFind = l.AddFunc("tatp.dcf.find", 22, 4, 0.3)
	s.dcfDel = l.AddFunc("tatp.dcf.delete", 34, 6, 0.3)
	return s
}

// Composite keys: subscriber < 2^40, small discriminators in low bits.
func aiKey(sub int64, ait int) int64 { return sub<<8 | int64(ait) }
func sfKey(sub int64, sft int) int64 { return sub<<8 | int64(sft) }
func cfKey(sub int64, sft, start int) int64 {
	return sub<<16 | int64(sft)<<8 | int64(start)
}

// New populates a TATP database at the given scale.
func New(cfg Config) *Workload {
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = defaultSubscribers
	}
	d := db.NewDatabase()
	w := &Workload{
		cfg:       cfg,
		db:        d,
		stmts:     registerStmts(d.Layout),
		rng:       xrand.New(cfg.Seed ^ 0x7A79),
		cfPresent: make(map[int64]bool),
	}
	w.createSchema()
	w.populate()
	return w
}

func (w *Workload) createSchema() {
	d := w.db
	w.sub = d.CreateIndex("i_subscriber")
	w.ai = d.CreateIndex("i_access_info")
	w.sf = d.CreateIndex("i_special_facility")
	w.cf = d.CreateIndex("i_call_forwarding")

	w.subT = d.CreateTable("subscriber", 1)
	w.aiT = d.CreateTable("access_info", 2)
	w.sfT = d.CreateTable("special_facility", 2)
	w.cfT = d.CreateTable("call_forwarding", 4)
}

func (w *Workload) populate() {
	for s := int64(0); s < int64(w.cfg.Subscribers); s++ {
		st := w.subT.Insert(nil)
		w.sub.Insert(nil, s, st)
		nAI := 1 + int(xrand.Hash64(uint64(s)^0xA1)%aiTypes)
		for t := 0; t < nAI; t++ {
			at := w.aiT.Insert(nil)
			w.ai.Insert(nil, aiKey(s, t), at)
		}
		nSF := 1 + int(xrand.Hash64(uint64(s)^0x5F)%sfTypes)
		for t := 0; t < nSF; t++ {
			ft := w.sfT.Insert(nil)
			w.sf.Insert(nil, sfKey(s, t), ft)
			// ~50% of facilities start with an active forwarding row.
			if xrand.Hash64(uint64(s)<<8|uint64(t))%2 == 0 {
				start := int(xrand.Hash64(uint64(s)^uint64(t)<<4) % cfStartTimes * 8)
				ct := w.cfT.Insert(nil)
				w.cf.Insert(nil, cfKey(s, t, start), ct)
				w.cfPresent[cfKey(s, t, start)] = true
			}
		}
	}
}

// DB exposes the underlying database (experiments inspect code size).
func (w *Workload) DB() *db.Database { return w.db }

// Name implements workload.Generator.
func (w *Workload) Name() string { return "TATP" }

// TypeNames implements workload.Generator.
func (w *Workload) TypeNames() []string { return TypeNames() }

// mixType samples the standard TATP mix: 35% GetSubscriberData, 10%
// GetNewDestination, 35% GetAccessData, 2% UpdateSubscriberData, 14%
// UpdateLocation, 2% each insert/delete call forwarding (80% reads).
func (w *Workload) mixType() int {
	r := w.rng.Float64()
	switch {
	case r < 0.35:
		return TGetSubscriberData
	case r < 0.45:
		return TGetNewDestination
	case r < 0.80:
		return TGetAccessData
	case r < 0.82:
		return TUpdateSubscriberData
	case r < 0.96:
		return TUpdateLocation
	case r < 0.98:
		return TInsertCallForwarding
	default:
		return TDeleteCallForwarding
	}
}

// Generate implements workload.Generator.
func (w *Workload) Generate(n int) *workload.Set {
	return w.generate(n, func() int { return w.mixType() })
}

// GenerateTyped implements workload.Generator.
func (w *Workload) GenerateTyped(typeID, n int) *workload.Set {
	if typeID < 0 || typeID >= numTypes {
		panic(fmt.Sprintf("tatp: bad type %d", typeID))
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
	case TGetSubscriberData:
		w.getSubscriberData(tx)
	case TGetNewDestination:
		w.getNewDestination(tx)
	case TGetAccessData:
		w.getAccessData(tx)
	case TUpdateSubscriberData:
		w.updateSubscriberData(tx)
	case TUpdateLocation:
		w.updateLocation(tx)
	case TInsertCallForwarding:
		w.insertCallForwarding(tx)
	case TDeleteCallForwarding:
		w.deleteCallForwarding(tx)
	default:
		panic("tatp: unknown type")
	}
	tx.Commit()
}

// pickSub draws a subscriber id; TATP uses a non-uniform distribution
// over the subscriber population, like TPC-C's NURand.
func (w *Workload) pickSub(tx *db.Txn) int64 {
	return int64(tx.RNG().NURand(1023, 0, w.cfg.Subscribers-1))
}

// getSubscriberData: point-read of the full Subscriber row.
func (w *Workload) getSubscriberData(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	em.Call(w.stmts.sharedGetSub, uint64(s))
	em.Call(w.stmts.gsdFind, uint64(s))
	if st, ok := w.sub.Lookup(tx, s); ok {
		em.Call(w.stmts.gsdRead, uint64(s))
		w.subT.Read(tx, st)
	}
}

// getNewDestination: SpecialFacility probe plus a CallForwarding scan
// over the facility's active slots.
func (w *Workload) getNewDestination(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	sft := tx.RNG().Intn(sfTypes)
	em.Call(w.stmts.sharedGetSub, uint64(s))
	em.Call(w.stmts.gndFindSF, uint64(sfKey(s, sft)))
	if ft, ok := w.sf.Lookup(tx, sfKey(s, sft)); ok {
		w.sfT.Read(tx, ft)
	}
	em.Call(w.stmts.gndScanCF, uint64(s))
	w.cf.Scan(tx, cfKey(s, sft, 0), cfStartTimes, func(k, v int64) bool {
		if k>>16 != s || (k>>8)&0xFF != int64(sft) {
			return false
		}
		w.cfT.Read(tx, v)
		return true
	})
}

// getAccessData: point-read of one AccessInfo row.
func (w *Workload) getAccessData(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	ait := tx.RNG().Intn(aiTypes)
	em.Call(w.stmts.gadFind, uint64(aiKey(s, ait)))
	if at, ok := w.ai.Lookup(tx, aiKey(s, ait)); ok {
		em.Call(w.stmts.gadRead, uint64(s))
		w.aiT.Read(tx, at)
	}
}

// updateSubscriberData: update Subscriber's bit field and one
// SpecialFacility's data field.
func (w *Workload) updateSubscriberData(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	sft := tx.RNG().Intn(sfTypes)
	em.Call(w.stmts.sharedGetSub, uint64(s))
	em.Call(w.stmts.usdUpdBit, uint64(s))
	if st, ok := w.sub.Lookup(tx, s); ok {
		w.subT.Update(tx, st)
	}
	em.Call(w.stmts.sharedGetSF, uint64(sfKey(s, sft)))
	em.Call(w.stmts.usdUpdSF, uint64(sft))
	if ft, ok := w.sf.Lookup(tx, sfKey(s, sft)); ok {
		w.sfT.Update(tx, ft)
	}
}

// updateLocation: find the subscriber "by number" (an index walk with a
// larger search function) and update its location column.
func (w *Workload) updateLocation(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	em.Call(w.stmts.ulFindNbr, uint64(s))
	if st, ok := w.sub.Lookup(tx, s); ok {
		em.Call(w.stmts.ulUpdLoc, uint64(s))
		w.subT.Read(tx, st)
		w.subT.Update(tx, st)
	}
}

// insertCallForwarding: probe Subscriber and SpecialFacility, then
// insert a CallForwarding row (no-op if the slot is taken, as in the
// spec, where ~30% of inserts fail on a duplicate key).
func (w *Workload) insertCallForwarding(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	sft := tx.RNG().Intn(sfTypes)
	start := tx.RNG().Intn(cfStartTimes) * 8
	em.Call(w.stmts.icfFindSub, uint64(s))
	if st, ok := w.sub.Lookup(tx, s); ok {
		w.subT.Read(tx, st)
	}
	em.Call(w.stmts.sharedGetSF, uint64(sfKey(s, sft)))
	if ft, ok := w.sf.Lookup(tx, sfKey(s, sft)); ok {
		w.sfT.Read(tx, ft)
	}
	key := cfKey(s, sft, start)
	em.Call(w.stmts.icfIns, uint64(key))
	if !w.cfPresent[key] {
		ct := w.cfT.Insert(tx)
		w.cf.Insert(tx, key, ct)
		w.cfPresent[key] = true
	}
}

// deleteCallForwarding: find and delete a CallForwarding row (the spec's
// delete also fails ~30% of the time on a missing row).
func (w *Workload) deleteCallForwarding(tx *db.Txn) {
	em := tx.Emit()
	s := w.pickSub(tx)
	sft := tx.RNG().Intn(sfTypes)
	start := tx.RNG().Intn(cfStartTimes) * 8
	key := cfKey(s, sft, start)
	em.Call(w.stmts.dcfFind, uint64(key))
	if _, ok := w.cf.Lookup(tx, key); ok {
		em.Call(w.stmts.dcfDel, uint64(key))
		w.cf.Delete(tx, key)
		delete(w.cfPresent, key)
	}
}
