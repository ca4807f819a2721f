// Package tracefile is the versioned binary codec that turns generated
// workload sets — trace.Buffer sequences plus their code layout — into
// durable on-disk artifacts (extension: .strextrace). The paper's
// methodology replays captured QTrace/PIN samples; this is our capture
// format, so a workload is generated once and replayed forever after
// from disk (internal/runcache builds its content-addressed store on
// top of it).
//
// File layout (format version 2, all integers little-endian except the
// varints):
//
//	offset 0  magic   [8]byte "strextrc"
//	          version uint16
//	          hdrLen  uint32
//	          header  hdrLen bytes of JSON (Meta): workload name, seed,
//	                  scale, type names, per-file entry/instr/load/
//	                  store/instruction-run counts, code layout functions
//	          payload one record per transaction, in set order:
//	                    uvarint id
//	                    uvarint type
//	                    uvarint header block
//	                    uvarint entry count
//	                    entries: uvarint(block<<2 | kind), and for
//	                             KInstr entries a following uvarint N
//	          trailer uint32 CRC-32 (IEEE) of everything before it
//
// The varint RLE entry encoding averages ~2 bytes per entry (blocks are
// small integers, kinds fit the low two bits), roughly 4x smaller than
// the in-memory representation. The CRC covers header and payload, so a
// torn or bit-flipped file is detected before any trace reaches the
// simulator; Decode is additionally hardened against hostile inputs
// (it never trusts a length field further than the bytes that follow).
//
// Both directions work on byte slices. Writer appends each transaction
// record to one reused slice; Load and Decode read the whole file and
// decode it from one slice, with a single CRC pass. Open reads only the
// header.
package tracefile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"strex/internal/atomicfile"
	"strex/internal/codegen"
	"strex/internal/trace"
	"strex/internal/workload"
)

// Version is the trace file format version this package reads and
// writes. Bump it for any incompatible layout change; internal/runcache
// folds it into every cache key, so old artifacts are simply never
// consulted again.
//
// v2 added the instruction-run total (Meta.InstrRuns, JSON key
// "segments") to the header. v1 files lack it and must be regenerated.
const Version = 2

// Ext is the conventional file extension.
const Ext = ".strextrace"

// magic identifies a strex trace file.
var magic = [8]byte{'s', 't', 'r', 'e', 'x', 't', 'r', 'c'}

// maxHeaderBytes bounds the JSON header a reader will buffer, so a
// corrupt length field cannot demand an absurd allocation.
const maxHeaderBytes = 16 << 20

// Decoding errors. Corrupt input always yields an error wrapping one of
// these (or io.ErrUnexpectedEOF for truncation) — never a panic.
var (
	ErrBadMagic = errors.New("tracefile: not a strex trace file")
	ErrVersion  = errors.New("tracefile: unsupported format version")
	ErrChecksum = errors.New("tracefile: checksum mismatch")
	ErrCorrupt  = errors.New("tracefile: corrupt file")
)

// Provenance records where a set came from — the generation parameters
// a cache needs to key on. Save embeds it in the file header. Extra
// carries canonicalized generator knobs not covered by Seed/Scale (the
// synth parameters), so regenerating from a header's provenance is
// never lossy.
type Provenance struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Scale    int    `json:"scale,omitempty"`
	// TypeID is -1 for a mixed benchmark stream and a type index for
	// GenerateTyped sets. Constructors must set it explicitly: the zero
	// value names type 0, not "mixed".
	TypeID int    `json:"type_id"`
	Extra  string `json:"extra,omitempty"`
}

// FuncSpec is the serialized form of one codegen.Func.
type FuncSpec struct {
	Name          string `json:"name"`
	Base          uint32 `json:"base"`
	CommonBlocks  int    `json:"common"`
	VariantGroups int    `json:"variant_groups,omitempty"`
	VariantBlocks int    `json:"variant_blocks,omitempty"`
}

// Meta is the file header: provenance plus the summary counters that
// let tools report on a file without decoding the payload, and the code
// layout needed to reconstruct a replayable workload.Set.
type Meta struct {
	FormatVersion int        `json:"format_version"`
	Provenance    Provenance `json:"provenance"`
	SetName       string     `json:"set_name"`
	Types         []string   `json:"types"`
	Txns          int        `json:"txns"`
	Entries       uint64     `json:"entries"`
	Instrs        uint64     `json:"instrs"`
	Loads         uint64     `json:"loads"`
	Stores        uint64     `json:"stores"`
	// InstrRuns counts maximal runs of consecutive instruction entries
	// across all transactions (format v2+; see trace.Buffer.InstrRuns).
	// Like the other totals it is verified against the decoded payload.
	InstrRuns  uint64     `json:"segments"`
	DataBlocks int        `json:"data_blocks"`
	Funcs      []FuncSpec `json:"funcs,omitempty"`
}

// metaOf summarizes a set into its header.
func metaOf(set *workload.Set, prov Provenance) Meta {
	m := Meta{
		FormatVersion: Version,
		Provenance:    prov,
		SetName:       set.Name,
		Types:         set.Types,
		Txns:          len(set.Txns),
		DataBlocks:    set.DataBlocks,
	}
	for _, tx := range set.Txns {
		m.Entries += uint64(tx.Trace.Len())
		m.Instrs += tx.Trace.Instrs
		m.Loads += tx.Trace.Loads
		m.Stores += tx.Trace.Stores
		m.InstrRuns += uint64(tx.Trace.InstrRuns())
	}
	if set.Layout != nil {
		for _, f := range set.Layout.Funcs() {
			m.Funcs = append(m.Funcs, FuncSpec{
				Name: f.Name, Base: f.Base, CommonBlocks: f.CommonBlocks,
				VariantGroups: f.VariantGroups, VariantBlocks: f.VariantBlocks,
			})
		}
	}
	return m
}

// layoutOf rebuilds the code layout from header funcs (nil when the
// file carries none).
func (m Meta) layoutOf() (*codegen.Layout, error) {
	if len(m.Funcs) == 0 {
		return nil, nil
	}
	funcs := make([]codegen.Func, len(m.Funcs))
	for i, f := range m.Funcs {
		funcs[i] = codegen.Func{
			ID: codegen.FuncID(i), Name: f.Name, Base: f.Base,
			CommonBlocks: f.CommonBlocks, VariantGroups: f.VariantGroups,
			VariantBlocks: f.VariantBlocks,
		}
	}
	return codegen.RestoreLayout(funcs)
}

// Writer writes a trace file. The header (and therefore the exact
// transaction count and summary totals) is written up front, so the
// caller must know them before writing — NewWriter takes the Meta and
// Close fails if the written transactions do not match it. Save computes
// the Meta from a materialized set; capture-style producers can build
// one incrementally before writing.
type Writer struct {
	w    io.Writer
	buf  []byte // bytes not yet handed to w, reused across transactions
	crc  uint32 // CRC-32 of the bytes already handed to w
	meta Meta
	n    int
	err  error
}

// flushAt is the pending size at which WriteTxn hands its buffer to the
// underlying writer.
const flushAt = 64 << 10

// fixedLen is the size of the magic, version and header-length prefix.
const fixedLen = len(magic) + 2 + 4

// NewWriter prepares the header for meta and returns a Writer ready to
// take transactions. meta.FormatVersion is forced to Version.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	meta.FormatVersion = Version
	hdr, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("tracefile: marshal header: %w", err)
	}
	if len(hdr) > maxHeaderBytes {
		return nil, fmt.Errorf("tracefile: header too large (%d bytes)", len(hdr))
	}
	buf := make([]byte, 0, flushAt)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	return &Writer{w: w, buf: append(buf, hdr...), meta: meta}, nil
}

// WriteTxn appends one transaction record.
func (w *Writer) WriteTxn(tx *workload.Txn) error {
	if w.err != nil {
		return w.err
	}
	if w.n >= w.meta.Txns {
		w.err = fmt.Errorf("tracefile: more transactions written than header declares (%d)", w.meta.Txns)
		return w.err
	}
	b := w.buf
	b = binary.AppendUvarint(b, uint64(tx.ID))
	b = binary.AppendUvarint(b, uint64(tx.Type))
	b = binary.AppendUvarint(b, uint64(tx.Header))
	b = binary.AppendUvarint(b, uint64(len(tx.Trace.Entries)))
	for _, e := range tx.Trace.Entries {
		b = binary.AppendUvarint(b, uint64(e.Block)<<2|uint64(e.Kind))
		if e.Kind == trace.KInstr {
			b = binary.AppendUvarint(b, uint64(e.N))
		}
	}
	w.buf = b
	w.n++
	if len(w.buf) >= flushAt {
		w.flush()
	}
	return w.err
}

// flush hands the pending bytes to the underlying writer, folding them
// into the running checksum.
func (w *Writer) flush() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf)
	if _, err := w.w.Write(w.buf); err != nil && w.err == nil {
		w.err = err
	}
	w.buf = w.buf[:0]
}

// Close writes the pending payload and the CRC trailer. It fails if
// fewer transactions were written than the header declares.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.n != w.meta.Txns {
		return fmt.Errorf("tracefile: header declares %d txns, %d written", w.meta.Txns, w.n)
	}
	sum := crc32.Update(w.crc, crc32.IEEETable, w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	w.flush()
	return w.err
}

// Encode writes set as a complete trace file to w.
func Encode(w io.Writer, set *workload.Set, prov Provenance) error {
	tw, err := NewWriter(w, metaOf(set, prov))
	if err != nil {
		return err
	}
	for _, tx := range set.Txns {
		if err := tw.WriteTxn(tx); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Save writes set to path atomically (temp file + rename), creating
// parent directories as needed.
func Save(path string, set *workload.Set, prov Provenance) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return Encode(w, set, prov)
	})
}

// headerLen validates the fixed prefix and returns the header length it
// declares.
func headerLen(fixed []byte) (int, error) {
	if [8]byte(fixed[:8]) != magic {
		return 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(fixed[8:10]); v != Version {
		if v < Version {
			return 0, fmt.Errorf("%w: file is v%d, which predates segment metadata (this build reads v%d)", ErrVersion, v, Version)
		}
		return 0, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint32(fixed[10:14])
	if n > maxHeaderBytes {
		return 0, fmt.Errorf("%w: header length %d", ErrCorrupt, n)
	}
	return int(n), nil
}

func parseMeta(hdr []byte) (Meta, error) {
	var m Meta
	if err := json.Unmarshal(hdr, &m); err != nil {
		return Meta{}, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if m.Txns < 0 {
		return Meta{}, fmt.Errorf("%w: negative txn count", ErrCorrupt)
	}
	return m, nil
}

// Open reads only the header of the trace file at path: O(1) in the
// payload size. It verifies neither the checksum nor the payload; Load
// does both.
func Open(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	var fixed [fixedLen]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return Meta{}, truncated(err)
	}
	n, err := headerLen(fixed[:])
	if err != nil {
		return Meta{}, err
	}
	hdr := make([]byte, n)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return Meta{}, truncated(err)
	}
	return parseMeta(hdr)
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decode reads a complete trace file from r, verifies its checksum and
// structural invariants, and reconstructs the workload set.
func Decode(r io.Reader) (*workload.Set, Meta, error) {
	// io.Copy hands a bytes.Reader's contents over in one exact-size
	// write; other readers fill the buffer by doubling.
	var b bytes.Buffer
	if _, err := io.Copy(&b, r); err != nil {
		return nil, Meta{}, err
	}
	return decode(b.Bytes())
}

// Load reads, verifies and reconstructs the set saved at path.
func Load(path string) (*workload.Set, Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Meta{}, err
	}
	return decode(data)
}

// minTxnBytes is the smallest encoding of one transaction record: four
// one-byte varints and one data entry.
const minTxnBytes = 5

// decode is the package's one payload decoder. Every length field is
// checked against the bytes that remain before anything is allocated
// for it, so a hostile file costs at most a small multiple of its size.
func decode(data []byte) (*workload.Set, Meta, error) {
	if len(data) < fixedLen {
		return nil, Meta{}, io.ErrUnexpectedEOF
	}
	hlen, err := headerLen(data)
	if err != nil {
		return nil, Meta{}, err
	}
	if len(data)-fixedLen < hlen {
		return nil, Meta{}, io.ErrUnexpectedEOF
	}
	meta, err := parseMeta(data[fixedLen : fixedLen+hlen])
	if err != nil {
		return nil, Meta{}, err
	}
	set := &workload.Set{
		Name:       meta.SetName,
		Types:      meta.Types,
		DataBlocks: meta.DataBlocks,
	}
	if set.Layout, err = meta.layoutOf(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d := decoder{data: data, pos: fixedLen + hlen, meta: &meta}
	if meta.Txns > (len(data)-d.pos)/minTxnBytes {
		return nil, meta, io.ErrUnexpectedEOF
	}
	set.Txns = make([]*workload.Txn, meta.Txns)
	for i := range set.Txns {
		if set.Txns[i], err = d.txn(i); err != nil {
			return nil, meta, err
		}
	}
	if rest := len(data) - d.pos; rest < 4 {
		return nil, meta, io.ErrUnexpectedEOF
	} else if rest > 4 {
		return nil, meta, fmt.Errorf("%w: %d trailing byte(s) after trailer", ErrCorrupt, rest-4)
	}
	if got, want := binary.LittleEndian.Uint32(data[d.pos:]), crc32.ChecksumIEEE(data[:d.pos]); got != want {
		return nil, meta, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if s := d.sums; s != [5]uint64{meta.Entries, meta.Instrs, meta.Loads, meta.Stores, meta.InstrRuns} {
		return nil, meta, fmt.Errorf("%w: header totals (entries=%d instrs=%d loads=%d stores=%d instr runs=%d) != decoded (%d/%d/%d/%d/%d)",
			ErrCorrupt, meta.Entries, meta.Instrs, meta.Loads, meta.Stores, meta.InstrRuns, s[0], s[1], s[2], s[3], s[4])
	}
	if err := set.Validate(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return set, meta, nil
}

// decoder walks the payload of one file held in memory.
type decoder struct {
	data []byte
	pos  int
	err  error // sticky: the first truncated or overflowing varint
	meta *Meta
	// sums recounts entries, instrs, loads, stores and instruction runs
	// for the check against the header totals.
	sums [5]uint64
}

// uvarint decodes the varint at the read position; one-byte varints
// take the inlined path. Past an error it returns 0 and leaves d.err set.
func (d *decoder) uvarint() uint64 {
	if p := d.pos; p < len(d.data) && d.data[p] < 0x80 {
		d.pos++
		return uint64(d.data[p])
	}
	return d.uvarintSlow()
}

func (d *decoder) uvarintSlow() uint64 {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n > 0 {
		d.pos += n
		return v
	}
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
		if n < 0 {
			d.err = fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
		}
	}
	d.pos = len(d.data)
	return 0
}

// txn decodes transaction record i.
func (d *decoder) txn(i int) (*workload.Txn, error) {
	id, typ, header, count := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if id >= uint64(d.meta.Txns) || typ >= uint64(len(d.meta.Types)) || header > math.MaxUint32 {
		return nil, fmt.Errorf("%w: txn record %d out of range (id=%d type=%d)", ErrCorrupt, i, id, typ)
	}
	if count == 0 || count > d.meta.Entries-d.sums[0] {
		return nil, fmt.Errorf("%w: txn %d declares %d entries (file total %d)", ErrCorrupt, id, count, d.meta.Entries)
	}
	// Every entry takes at least one byte: a count beyond the bytes that
	// remain is a truncated (or lying) file, caught before allocating.
	if count > uint64(len(d.data)-d.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	buf := &trace.Buffer{Entries: make([]trace.Entry, count)}
	prev := trace.KLoad
	for j := range buf.Entries {
		v := d.uvarint()
		e := &buf.Entries[j]
		e.Kind = trace.Kind(v & 3)
		if v>>2 > math.MaxUint32 || e.Kind > trace.KStore {
			return nil, fmt.Errorf("%w: txn %d entry %d malformed", ErrCorrupt, id, j)
		}
		e.Block = uint32(v >> 2)
		switch e.Kind {
		case trace.KInstr:
			n := d.uvarint()
			if n == 0 || n > math.MaxUint16 {
				if d.err != nil {
					return nil, d.err
				}
				return nil, fmt.Errorf("%w: txn %d entry %d has run length %d", ErrCorrupt, id, j, n)
			}
			e.N = uint16(n)
			buf.Instrs += n
			if prev != trace.KInstr {
				d.sums[4]++
			}
		case trace.KLoad:
			buf.Loads++
		case trace.KStore:
			buf.Stores++
		}
		prev = e.Kind
	}
	if d.err != nil {
		return nil, d.err
	}
	d.sums[0] += count
	d.sums[1] += buf.Instrs
	d.sums[2] += buf.Loads
	d.sums[3] += buf.Stores
	return &workload.Txn{ID: int(id), Type: int(typ), Header: uint32(header), Trace: buf}, nil
}
