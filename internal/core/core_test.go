package core

import (
	"testing"
	"testing/quick"

	"strex/internal/codegen"
	"strex/internal/trace"
	"strex/internal/workload"
)

func TestPhaseCounterWraps(t *testing.T) {
	var p PhaseCounter
	for i := 0; i < 256; i++ {
		p.Increment()
	}
	if p.Value() != 0 {
		t.Fatalf("8-bit counter after 256 increments = %d", p.Value())
	}
	p.Increment()
	if p.Value() != 1 {
		t.Fatalf("value = %d", p.Value())
	}
	p.Reset()
	if p.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTeamFIFOOrder(t *testing.T) {
	team := &Team{Header: 100}
	for i := ThreadID(0); i < 5; i++ {
		team.Add(i)
	}
	for want := ThreadID(0); want < 5; want++ {
		got, ok := team.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := team.Pop(); ok {
		t.Fatal("Pop from empty team succeeded")
	}
}

func TestTeamFirstIsLead(t *testing.T) {
	team := &Team{Header: 1}
	team.Add(7)
	team.Add(8)
	lead, ok := team.Lead()
	if !ok || lead != 7 {
		t.Fatalf("lead = %d,%v", lead, ok)
	}
	if !team.IsLead(7) || team.IsLead(8) {
		t.Fatal("IsLead wrong")
	}
}

func TestTeamRequeueRoundRobin(t *testing.T) {
	team := &Team{Header: 1}
	team.Add(1)
	team.Add(2)
	a, _ := team.Pop()
	team.Requeue(a)
	b, _ := team.Pop()
	if a != 1 || b != 2 {
		t.Fatalf("round robin broken: %d then %d", a, b)
	}
}

func TestRetireLeadPromotesNext(t *testing.T) {
	team := &Team{Header: 1}
	team.Add(1)
	team.Add(2)
	team.Add(3)
	id, _ := team.Pop() // 1 running
	if !team.IsLead(id) {
		t.Fatal("1 should be lead")
	}
	// 1 completes
	team.RetireLead()
	if lead, ok := team.Lead(); !ok || lead != 2 {
		t.Fatalf("new lead = %d,%v want 2", lead, ok)
	}
}

func TestRetireLeadOnEmptyQueue(t *testing.T) {
	team := &Team{Header: 1}
	team.Add(1)
	team.Pop()
	team.RetireLead()
	if _, ok := team.Lead(); ok {
		t.Fatal("empty team should have no lead")
	}
}

func TestFormTeamGroupsByHeader(t *testing.T) {
	window := []Candidate{
		{ID: 0, Header: 100, Arrival: 0},
		{ID: 1, Header: 200, Arrival: 1},
		{ID: 2, Header: 100, Arrival: 2},
		{ID: 3, Header: 100, Arrival: 3},
	}
	team := FormTeam(nil, window, FormationConfig{Window: 30, TeamSize: 10})
	if len(team) != 3 {
		t.Fatalf("team size %d, want 3", len(team))
	}
	for _, c := range team {
		if c.Header != 100 {
			t.Fatalf("wrong member %+v", c)
		}
	}
	if team[0].ID != 0 || team[1].ID != 2 || team[2].ID != 3 {
		t.Fatal("team not in arrival order")
	}
}

func TestFormTeamRespectsTeamSize(t *testing.T) {
	var window []Candidate
	for i := 0; i < 20; i++ {
		window = append(window, Candidate{ID: ThreadID(i), Header: 5, Arrival: i})
	}
	team := FormTeam(nil, window, FormationConfig{Window: 30, TeamSize: 10})
	if len(team) != 10 {
		t.Fatalf("team size %d, want 10", len(team))
	}
}

func TestFormTeamRespectsWindow(t *testing.T) {
	var window []Candidate
	window = append(window, Candidate{ID: 0, Header: 1})
	for i := 1; i < 40; i++ {
		h := uint32(2)
		if i >= 35 {
			h = 1 // same-type peers beyond the window must be invisible
		}
		window = append(window, Candidate{ID: ThreadID(i), Header: h, Arrival: i})
	}
	team := FormTeam(nil, window, FormationConfig{Window: 30, TeamSize: 10})
	if len(team) != 1 {
		t.Fatalf("stray transaction should form a singleton team, got %d", len(team))
	}
}

func TestFormTeamStray(t *testing.T) {
	window := []Candidate{
		{ID: 0, Header: 1},
		{ID: 1, Header: 2},
		{ID: 2, Header: 3},
	}
	team := FormTeam(nil, window, DefaultFormation())
	if len(team) != 1 || team[0].ID != 0 {
		t.Fatalf("stray team: %+v", team)
	}
}

func TestFormTeamEmptyWindow(t *testing.T) {
	if team := FormTeam(nil, nil, DefaultFormation()); team != nil {
		t.Fatal("empty window should form no team")
	}
}

func TestFormTeamProperty(t *testing.T) {
	// For any window: the team is non-empty, members share the seed's
	// header, size ≤ TeamSize, and members appear in window order.
	f := func(headers []uint8, teamSize uint8) bool {
		if len(headers) == 0 {
			return true
		}
		window := make([]Candidate, len(headers))
		for i, h := range headers {
			window[i] = Candidate{ID: ThreadID(i), Header: uint32(h % 4), Arrival: i}
		}
		cfg := FormationConfig{Window: 30, TeamSize: int(teamSize%20) + 1}
		team := FormTeam(nil, window, cfg)
		if len(team) == 0 || len(team) > cfg.TeamSize {
			return false
		}
		prev := -1
		for _, c := range team {
			if c.Header != window[0].Header {
				return false
			}
			if int(c.ID) <= prev {
				return false
			}
			prev = int(c.ID)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func makeSet(footprintBlocks map[int]int, perType int) *workload.Set {
	set := &workload.Set{Name: "synthetic", Types: []string{"A", "B", "C"}}
	id := 0
	for typ := 0; typ < 3; typ++ {
		for k := 0; k < perType; k++ {
			buf := &trace.Buffer{}
			for b := 0; b < footprintBlocks[typ]; b++ {
				buf.AppendInstr(uint32(typ*100000+b), 12)
			}
			set.Txns = append(set.Txns, &workload.Txn{
				ID: id, Type: typ, Header: uint32(typ * 100000), Trace: buf,
			})
			id++
		}
	}
	return set
}

func TestMeasureFPTable(t *testing.T) {
	unit := codegen.L1IUnitBlocks
	set := makeSet(map[int]int{0: 5 * unit, 1: 9 * unit, 2: 14 * unit}, 3)
	fp := MeasureFPTable(set, 2)
	if fp.Types() != 3 {
		t.Fatalf("types = %d", fp.Types())
	}
	for typ, want := range map[int]int{0: 5, 1: 9, 2: 14} {
		u, ok := fp.Units(uint32(typ * 100000))
		if !ok || u != want {
			t.Fatalf("type %d: units = %d,%v want %d", typ, u, ok, want)
		}
	}
	if avg := fp.AverageUnits(); avg < 9.2 || avg > 9.4 {
		t.Fatalf("average = %v, want ~9.33", avg)
	}
}

func TestChooseSLICCThreshold(t *testing.T) {
	unit := codegen.L1IUnitBlocks
	// Average 12.4 like TPC-C's Table 3 row: SLICC only at ≥13 cores.
	set := makeSet(map[int]int{0: 12 * unit, 1: 14 * unit, 2: 11 * unit}, 1)
	fp := MeasureFPTable(set, 1)
	if fp.ChooseSLICC(8) {
		t.Fatal("8 cores should select STREX")
	}
	if fp.ChooseSLICC(12) {
		t.Fatal("12 cores should select STREX (avg 12.33 needs 13)")
	}
	if !fp.ChooseSLICC(16) {
		t.Fatal("16 cores should select SLICC")
	}
}

func TestFPTableEntriesSorted(t *testing.T) {
	unit := codegen.L1IUnitBlocks
	set := makeSet(map[int]int{0: 5 * unit, 1: 9 * unit, 2: 14 * unit}, 1)
	fp := MeasureFPTable(set, 1)
	entries := fp.Entries()
	if len(entries) != 3 {
		t.Fatalf("%d entries", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name > entries[i].Name {
			t.Fatal("entries not sorted")
		}
	}
}

func TestHardwareCostTable4(t *testing.T) {
	h := DefaultHardwareCost()
	// Table 4: thread scheduler total 5324 bits (665.5 bytes).
	if got := h.ThreadSchedulerBits(); got != 5324 {
		t.Fatalf("thread scheduler = %d bits, want 5324", got)
	}
	// Team formation: 1800 bits (225 bytes).
	if got := h.TeamFormationBits(); got != 1800 {
		t.Fatalf("team formation = %d bits, want 1800", got)
	}
	if got := h.TotalBytes(); got != 890.5 {
		t.Fatalf("STREX total = %v bytes, want 890.5 (665.5+225)", got)
	}
	h.IncludeHybrid = true
	// Hybrid total: 1166.5 bytes per Table 4.
	if got := h.TotalBytes(); got != 1166.5 {
		t.Fatalf("hybrid total = %v bytes, want 1166.5", got)
	}
}

func TestStorageUnderTwoPercentOfPIF(t *testing.T) {
	// Section 5.3: STREX uses "less than 2% of the overhead storage" of
	// PIF (~40KB per core).
	h := DefaultHardwareCost()
	if frac := h.TotalBytes() / PIFStorageBytes; frac >= 0.022 {
		t.Fatalf("STREX storage is %.3f of PIF's; paper claims <2%%", frac)
	}
}
