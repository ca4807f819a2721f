package arrival

import (
	"fmt"
	"sort"
	"strings"

	"strex/internal/codegen"
	"strex/internal/trace"
	"strex/internal/workload"
)

// Tenant is one workload sharing the machine in a multi-tenant mix,
// with its own arrival process.
type Tenant struct {
	Name string
	Set  *workload.Set
	Spec Spec
}

// Mix is a merged multi-tenant open-loop scenario: one combined
// workload set in arrival order, the aligned arrival clocks, and the
// per-transaction tenant attribution needed for per-tenant stats.
type Mix struct {
	Set    *workload.Set
	Clocks []uint64 // non-decreasing, aligned with Set.Txns
	Tenant []int    // tenant index per transaction, aligned with Set.Txns
	Names  []string // tenant display names, indexed by Tenant values
}

// MergeTenants builds a Mix from one or more tenants. A single tenant
// keeps its set untouched (so an infinite-rate single-tenant mix is
// bit-for-bit the closed-loop run). Multiple tenants are merged onto
// one machine with disjoint address spaces: each tenant's instruction
// and data blocks are shifted by a per-tenant offset (headers
// included), so no two tenants ever share a cache block and STREX's
// header-address grouping keeps strata tenant-pure. Transactions are
// ordered by (arrival clock, tenant, original index) and re-IDed; the
// merged schedule is the sorted union of the per-tenant schedules.
func MergeTenants(tenants []Tenant) (*Mix, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("arrival: no tenants")
	}
	names := make([]string, len(tenants))
	for i, tn := range tenants {
		if tn.Set == nil || len(tn.Set.Txns) == 0 {
			return nil, fmt.Errorf("arrival: tenant %d (%s) has an empty set", i, tn.Name)
		}
		names[i] = tn.Name
		if names[i] == "" {
			names[i] = tn.Set.Name
		}
	}
	if len(tenants) == 1 {
		tn := tenants[0]
		return &Mix{
			Set:    tn.Set,
			Clocks: tn.Spec.Schedule(len(tn.Set.Txns)),
			Tenant: make([]int, len(tn.Set.Txns)),
			Names:  names,
		}, nil
	}

	// Per-tenant address extents: one past the highest instruction
	// block (headers included) and the highest data block offset.
	instrOff := make([]uint32, len(tenants))
	dataOff := make([]uint32, len(tenants))
	var instrNext, dataNext uint64
	for i, tn := range tenants {
		instrOff[i], dataOff[i] = uint32(instrNext), uint32(dataNext)
		iSpan, dSpan := extents(tn.Set)
		instrNext += iSpan
		dataNext += dSpan
		if instrNext > uint64(codegen.DataBase) {
			return nil, fmt.Errorf("arrival: merged instruction footprint %d blocks overflows the instruction space (%d)", instrNext, codegen.DataBase)
		}
		if uint64(codegen.DataBase)+dataNext > 1<<32 {
			return nil, fmt.Errorf("arrival: merged data footprint %d blocks overflows the block address space", dataNext)
		}
	}

	merged := &workload.Set{Name: "mix(" + strings.Join(names, "+") + ")"}
	type slot struct {
		clock  uint64
		tenant int
		idx    int
		txn    *workload.Txn
	}
	var slots []slot
	for i, tn := range tenants {
		// Clone before rewriting: sets are read-only once shared
		// (workload ownership rule), so the block offsets below must not
		// reach the tenant's own buffers.
		cl := tn.Set.Clone()
		typeOff := len(merged.Types)
		for _, ty := range tn.Set.Types {
			merged.Types = append(merged.Types, names[i]+":"+ty)
		}
		clocks := tn.Spec.Schedule(len(cl.Txns))
		for j, tx := range cl.Txns {
			tx.Type += typeOff
			tx.Header += instrOff[i]
			for k := range tx.Trace.Entries {
				e := &tx.Trace.Entries[k]
				if e.Kind == trace.KInstr {
					e.Block += instrOff[i]
				} else {
					e.Block += dataOff[i]
				}
			}
			slots = append(slots, slot{clock: clocks[j], tenant: i, idx: j, txn: tx})
		}
		merged.DataBlocks += tn.Set.DataBlocks
	}
	sort.SliceStable(slots, func(a, b int) bool {
		if slots[a].clock != slots[b].clock {
			return slots[a].clock < slots[b].clock
		}
		if slots[a].tenant != slots[b].tenant {
			return slots[a].tenant < slots[b].tenant
		}
		return slots[a].idx < slots[b].idx
	})
	mix := &Mix{
		Set:    merged,
		Clocks: make([]uint64, len(slots)),
		Tenant: make([]int, len(slots)),
		Names:  names,
	}
	merged.Txns = make([]*workload.Txn, len(slots))
	for i, sl := range slots {
		sl.txn.ID = i
		merged.Txns[i] = sl.txn
		mix.Clocks[i] = sl.clock
		mix.Tenant[i] = sl.tenant
	}
	if err := merged.Validate(); err != nil {
		return nil, fmt.Errorf("arrival: merged set invalid: %w", err)
	}
	return mix, nil
}

// extents returns one past the highest instruction block (headers
// included) and one past the highest data block offset used by the set.
func extents(s *workload.Set) (iSpan, dSpan uint64) {
	for _, tx := range s.Txns {
		if n := uint64(tx.Header) + 1; n > iSpan {
			iSpan = n
		}
		for _, e := range tx.Trace.Entries {
			if e.Kind == trace.KInstr {
				if n := uint64(e.Block) + 1; n > iSpan {
					iSpan = n
				}
			} else if n := uint64(e.Block-codegen.DataBase) + 1; n > dSpan {
				dSpan = n
			}
		}
	}
	return iSpan, dSpan
}
