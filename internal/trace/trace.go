// Package trace defines the execution-trace representation the simulator
// replays. The paper replays x86 traces collected with QTrace/PIN; we
// replay synthetic traces produced by the instrumented storage manager
// (internal/db + internal/codegen).
//
// A trace is a run-length-encoded sequence of entries. An instruction
// entry means "execute N instructions whose fetches all fall in
// instruction block B"; a data entry means "perform one load/store to
// data block B". Run-length encoding at block granularity is lossless
// for a block-granular cache model and keeps traces ~16x smaller than
// per-instruction PCs.
package trace

import "fmt"

// Kind discriminates trace entries.
type Kind uint8

const (
	// KInstr is a run of N instructions within one instruction block.
	KInstr Kind = iota
	// KLoad is a single data read.
	KLoad
	// KStore is a single data write.
	KStore
)

// String returns a short mnemonic for the entry kind.
func (k Kind) String() string {
	switch k {
	case KInstr:
		return "I"
	case KLoad:
		return "L"
	case KStore:
		return "S"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Entry is one run-length-encoded trace event.
type Entry struct {
	Block uint32 // instruction or data block index
	N     uint16 // instruction count (KInstr only; 0 for data entries)
	Kind  Kind
}

// Buffer is a fully materialized trace for one transaction, plus summary
// counters maintained during emission.
type Buffer struct {
	Entries []Entry
	Instrs  uint64 // total instructions across all KInstr entries
	Loads   uint64
	Stores  uint64
}

// AppendInstr appends a run of n instructions in block. Adjacent runs in
// the same block coalesce (up to the uint16 limit) to keep buffers small;
// this is behaviour-preserving because the cache model charges one access
// per entry and re-touching a just-touched block is always a hit.
func (b *Buffer) AppendInstr(block uint32, n int) {
	if n <= 0 {
		return
	}
	b.Instrs += uint64(n)
	if last := len(b.Entries) - 1; last >= 0 {
		e := &b.Entries[last]
		if e.Kind == KInstr && e.Block == block && int(e.N)+n <= 0xFFFF {
			e.N += uint16(n)
			return
		}
	}
	for n > 0xFFFF {
		b.Entries = append(b.Entries, Entry{Block: block, N: 0xFFFF, Kind: KInstr})
		n -= 0xFFFF
	}
	b.Entries = append(b.Entries, Entry{Block: block, N: uint16(n), Kind: KInstr})
}

// AppendData appends one load or store to block.
func (b *Buffer) AppendData(block uint32, write bool) {
	k := KLoad
	if write {
		k = KStore
		b.Stores++
	} else {
		b.Loads++
	}
	b.Entries = append(b.Entries, Entry{Block: block, Kind: k})
}

// Len returns the number of entries.
func (b *Buffer) Len() int { return len(b.Entries) }

// Reset empties the buffer, retaining capacity.
func (b *Buffer) Reset() {
	b.Entries = b.Entries[:0]
	b.Instrs, b.Loads, b.Stores = 0, 0, 0
}

// Clone returns a copy of b whose entries are allocated once, at their
// final length. Generators emit into one reused scratch buffer and keep
// a clone of it, so stored traces never carry append-doubling slack.
func (b *Buffer) Clone() *Buffer {
	c := *b
	c.Entries = make([]Entry, len(b.Entries))
	copy(c.Entries, b.Entries)
	return &c
}

// InstrRuns returns the number of maximal runs of consecutive
// instruction entries — the stretches between data accesses.
func (b *Buffer) InstrRuns() int {
	n := 0
	for i, e := range b.Entries {
		if e.Kind == KInstr && (i == 0 || b.Entries[i-1].Kind != KInstr) {
			n++
		}
	}
	return n
}

// CompileStats always returns zeros: traces are replayed entry by entry
// and nothing compiles them. It remains only because the benchmark
// module in perfbench/ reads it for its trace.* per-layer metrics, which
// report 0 for a layer that does no work.
func CompileStats() (tables, entries, segs, nanos uint64) { return 0, 0, 0, 0 }

// UniqueIBlocks returns the number of distinct instruction blocks in the
// trace — the transaction's instruction footprint in blocks.
func (b *Buffer) UniqueIBlocks() int {
	seen := make(map[uint32]struct{})
	for _, e := range b.Entries {
		if e.Kind == KInstr {
			seen[e.Block] = struct{}{}
		}
	}
	return len(seen)
}

// UniqueDBlocks returns the number of distinct data blocks in the trace.
func (b *Buffer) UniqueDBlocks() int {
	seen := make(map[uint32]struct{})
	for _, e := range b.Entries {
		if e.Kind != KInstr {
			seen[e.Block] = struct{}{}
		}
	}
	return len(seen)
}

// Cursor is a resumable read position within a Buffer. Context switches
// and migrations save/restore cursors; that is the whole architectural
// state the simulator needs per thread.
type Cursor struct {
	buf *Buffer
	idx int
}

// NewCursor returns a cursor at the start of buf.
func NewCursor(buf *Buffer) Cursor { return Cursor{buf: buf} }

// Done reports whether the trace is exhausted.
func (c *Cursor) Done() bool { return c.buf == nil || c.idx >= len(c.buf.Entries) }

// Peek returns the next entry without consuming it. It panics if Done.
func (c *Cursor) Peek() Entry {
	if c.Done() {
		panic("trace: Peek past end")
	}
	return c.buf.Entries[c.idx]
}

// Next consumes and returns the next entry. It panics if Done.
func (c *Cursor) Next() Entry {
	e := c.Peek()
	c.idx++
	return e
}

// Pos returns the current entry index (for progress accounting).
func (c *Cursor) Pos() int { return c.idx }

// Rest returns the unconsumed entries as a read-only view. Paired with
// Advance it lets hot replay loops iterate a plain slice instead of
// paying a Done/Peek/Next call trio per entry.
func (c *Cursor) Rest() []Entry {
	if c.buf == nil {
		return nil
	}
	return c.buf.Entries[c.idx:]
}

// Advance consumes n entries (n must not exceed Remaining).
func (c *Cursor) Advance(n int) {
	if n < 0 || n > c.Remaining() {
		panic("trace: Advance past end")
	}
	c.idx += n
}

// Remaining returns the number of unconsumed entries.
func (c *Cursor) Remaining() int {
	if c.buf == nil {
		return 0
	}
	return len(c.buf.Entries) - c.idx
}
