package trace

import (
	"testing"
	"testing/quick"
)

func TestAppendInstrCoalesces(t *testing.T) {
	var b Buffer
	b.AppendInstr(5, 10)
	b.AppendInstr(5, 6)
	if b.Len() != 1 {
		t.Fatalf("adjacent same-block runs not coalesced: %d entries", b.Len())
	}
	if b.Entries[0].N != 16 || b.Instrs != 16 {
		t.Fatalf("coalesced count wrong: %+v instrs=%d", b.Entries[0], b.Instrs)
	}
}

func TestAppendInstrNoCoalesceAcrossBlocks(t *testing.T) {
	var b Buffer
	b.AppendInstr(5, 10)
	b.AppendInstr(6, 10)
	b.AppendInstr(5, 10)
	if b.Len() != 3 {
		t.Fatalf("entries = %d, want 3", b.Len())
	}
}

func TestAppendInstrOverflowSplits(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 200000)
	var total uint64
	for _, e := range b.Entries {
		if e.Kind != KInstr || e.Block != 1 {
			t.Fatalf("bad entry %+v", e)
		}
		total += uint64(e.N)
	}
	if total != 200000 || b.Instrs != 200000 {
		t.Fatalf("split total = %d, instrs = %d", total, b.Instrs)
	}
}

func TestAppendInstrZeroIsNoop(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 0)
	b.AppendInstr(1, -3)
	if b.Len() != 0 || b.Instrs != 0 {
		t.Fatal("zero/negative run appended")
	}
}

func TestAppendData(t *testing.T) {
	var b Buffer
	b.AppendData(9, false)
	b.AppendData(10, true)
	if b.Loads != 1 || b.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", b.Loads, b.Stores)
	}
	if b.Entries[0].Kind != KLoad || b.Entries[1].Kind != KStore {
		t.Fatalf("kinds: %v %v", b.Entries[0].Kind, b.Entries[1].Kind)
	}
}

func TestInstrCountInvariant(t *testing.T) {
	f := func(runs []uint16) bool {
		var b Buffer
		var want uint64
		for i, n := range runs {
			b.AppendInstr(uint32(i%7), int(n))
			want += uint64(n)
		}
		var got uint64
		for _, e := range b.Entries {
			if e.Kind == KInstr {
				got += uint64(e.N)
			}
		}
		return got == want && b.Instrs == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCursorWalk(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 4)
	b.AppendData(2, true)
	b.AppendInstr(3, 4)
	c := NewCursor(&b)
	var kinds []Kind
	for !c.Done() {
		kinds = append(kinds, c.Next().Kind)
	}
	if len(kinds) != 3 || kinds[0] != KInstr || kinds[1] != KStore || kinds[2] != KInstr {
		t.Fatalf("walk order: %v", kinds)
	}
}

func TestCursorPeekDoesNotConsume(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 1)
	c := NewCursor(&b)
	_ = c.Peek()
	if c.Pos() != 0 || c.Done() {
		t.Fatal("Peek consumed the entry")
	}
}

func TestCursorResumable(t *testing.T) {
	var b Buffer
	for i := uint32(0); i < 10; i++ {
		b.AppendInstr(i, 1)
	}
	c := NewCursor(&b)
	c.Next()
	c.Next()
	saved := c // cursors are values: copying saves the context
	c.Next()
	if saved.Pos() != 2 || c.Pos() != 3 {
		t.Fatalf("saved=%d cur=%d", saved.Pos(), c.Pos())
	}
	if saved.Next().Block != 2 {
		t.Fatal("restored cursor resumed at wrong entry")
	}
}

func TestCursorRemaining(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 1)
	b.AppendInstr(2, 1)
	c := NewCursor(&b)
	if c.Remaining() != 2 {
		t.Fatalf("remaining = %d", c.Remaining())
	}
	c.Next()
	if c.Remaining() != 1 {
		t.Fatalf("remaining = %d", c.Remaining())
	}
}

func TestCursorPanicsPastEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Next past end did not panic")
		}
	}()
	var b Buffer
	c := NewCursor(&b)
	c.Next()
}

func TestUniqueBlocks(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 1)
	b.AppendInstr(2, 1)
	b.AppendInstr(1, 1)
	b.AppendData(1, false) // data block 1 is a different space, counted separately
	b.AppendData(5, true)
	if got := b.UniqueIBlocks(); got != 2 {
		t.Fatalf("UniqueIBlocks = %d, want 2", got)
	}
	if got := b.UniqueDBlocks(); got != 2 {
		t.Fatalf("UniqueDBlocks = %d, want 2", got)
	}
}

// TestInstrRuns covers the break-point cases of the instruction-run
// count the trace-file header carries: runs end only at data entries,
// whatever the blocks and run lengths inside them.
func TestInstrRuns(t *testing.T) {
	I := func(block uint32, n uint16) Entry { return Entry{Block: block, N: n, Kind: KInstr} }
	L := Entry{Block: 9, Kind: KLoad}
	S := Entry{Block: 9, Kind: KStore}
	for _, tc := range []struct {
		name    string
		entries []Entry
		want    int
	}{
		{"empty", nil, 0},
		{"data only", []Entry{L, S, L}, 0},
		{"one instr", []Entry{I(1, 1)}, 1},
		{"same block repeated", []Entry{I(1, 1), I(1, 2), I(1, 3)}, 1},
		{"zero N", []Entry{I(1, 0), I(2, 0)}, 1},
		{"leading and trailing data", []Entry{L, I(1, 1), I(2, 1), S}, 1},
		{"adjacent data", []Entry{I(1, 1), L, S, I(1, 1)}, 2},
		{"alternating", []Entry{I(1, 1), L, I(2, 1), S, I(3, 1), L}, 3},
	} {
		b := Buffer{Entries: tc.entries}
		if got := b.InstrRuns(); got != tc.want {
			t.Errorf("%s: InstrRuns = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestReset(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 5)
	b.AppendData(2, true)
	b.Reset()
	if b.Len() != 0 || b.Instrs != 0 || b.Loads != 0 || b.Stores != 0 {
		t.Fatalf("reset left state: len=%d instrs=%d loads=%d stores=%d",
			b.Len(), b.Instrs, b.Loads, b.Stores)
	}
}

func TestKindString(t *testing.T) {
	if KInstr.String() != "I" || KLoad.String() != "L" || KStore.String() != "S" {
		t.Fatal("kind mnemonics wrong")
	}
}

func TestRestAndAdvance(t *testing.T) {
	var b Buffer
	b.AppendInstr(1, 5)
	b.AppendData(9, false)
	b.AppendInstr(2, 3)
	cur := NewCursor(&b)
	if got := len(cur.Rest()); got != 3 {
		t.Fatalf("Rest() = %d entries, want 3", got)
	}
	cur.Advance(2)
	rest := cur.Rest()
	if len(rest) != 1 || rest[0].Block != 2 {
		t.Fatalf("after Advance(2), Rest() = %+v", rest)
	}
	if cur.Pos() != 2 || cur.Remaining() != 1 {
		t.Fatalf("Pos=%d Remaining=%d", cur.Pos(), cur.Remaining())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advance past end did not panic")
		}
	}()
	cur.Advance(2)
}
