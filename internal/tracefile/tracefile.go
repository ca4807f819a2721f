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
// Reading and writing stream transaction-by-transaction (Reader/Writer);
// Save/Load/Open are the whole-file conveniences built on them.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
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

// Writer streams a trace file. The header (and therefore the exact
// transaction count and summary totals) is written up front, so the
// caller must know them before streaming — NewWriter takes the Meta and
// Close fails if the written transactions do not match it. Save computes
// the Meta from a materialized set; capture-style producers can build
// one incrementally before writing.
type Writer struct {
	w    *bufio.Writer
	crc  hash.Hash32
	meta Meta
	n    int
	err  error
}

// NewWriter writes the header for meta to w and returns a Writer ready
// to stream transactions. meta.FormatVersion is forced to Version.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	meta.FormatVersion = Version
	hdr, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("tracefile: marshal header: %w", err)
	}
	if len(hdr) > maxHeaderBytes {
		return nil, fmt.Errorf("tracefile: header too large (%d bytes)", len(hdr))
	}
	tw := &Writer{crc: crc32.NewIEEE(), meta: meta}
	tw.w = bufio.NewWriter(io.MultiWriter(w, tw.crc))
	if _, err := tw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	var fix [6]byte
	binary.LittleEndian.PutUint16(fix[0:2], Version)
	binary.LittleEndian.PutUint32(fix[2:6], uint32(len(hdr)))
	if _, err := tw.w.Write(fix[:]); err != nil {
		return nil, err
	}
	if _, err := tw.w.Write(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// Meta returns the header being written.
func (w *Writer) Meta() Meta { return w.meta }

func (w *Writer) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := w.w.Write(buf[:n]); err != nil && w.err == nil {
		w.err = err
	}
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
	w.uvarint(uint64(tx.ID))
	w.uvarint(uint64(tx.Type))
	w.uvarint(uint64(tx.Header))
	w.uvarint(uint64(len(tx.Trace.Entries)))
	for _, e := range tx.Trace.Entries {
		w.uvarint(uint64(e.Block)<<2 | uint64(e.Kind))
		if e.Kind == trace.KInstr {
			w.uvarint(uint64(e.N))
		}
	}
	w.n++
	return w.err
}

// Close flushes the payload and writes the CRC trailer. It fails if
// fewer transactions were written than the header declares.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.n != w.meta.Txns {
		return fmt.Errorf("tracefile: header declares %d txns, %d written", w.meta.Txns, w.n)
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	// Flush has pushed everything through the MultiWriter, so the digest
	// is final here — capture it BEFORE writing the trailer. The trailer
	// bytes then also pass through the (now irrelevant) hash, because
	// bypassing the bufio/MultiWriter stack would reorder output.
	sum := w.crc.Sum32()
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	if _, err := w.w.Write(tr[:]); err != nil {
		return err
	}
	return w.w.Flush()
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

// crcByteReader hashes exactly the bytes its caller consumes. Hashing
// must sit *above* the bufio buffer: a tee below it would digest
// read-ahead bytes (including the CRC trailer itself) before the
// decoder reaches them.
type crcByteReader struct {
	r   *bufio.Reader
	crc hash.Hash32
	one [1]byte
}

func (c *crcByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

func (c *crcByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.one[0] = b
		c.crc.Write(c.one[:])
	}
	return b, err
}

// Reader streams a trace file: header first, then one transaction per
// Next call. The CRC is verified by Verify (Load calls it; tools that
// only want the header may skip it).
type Reader struct {
	raw   *bufio.Reader // post-payload reads (trailer) bypass the CRC
	r     *crcByteReader
	meta  Meta
	n     int // transactions decoded so far
	sums  struct{ entries, instrs, loads, stores, instrRuns uint64 }
	close io.Closer
}

// NewReader reads and validates the header from r.
func NewReader(r io.Reader) (*Reader, error) {
	raw := bufio.NewReader(r)
	tr := &Reader{raw: raw, r: &crcByteReader{r: raw, crc: crc32.NewIEEE()}}
	var fixed [14]byte
	if _, err := io.ReadFull(tr.r, fixed[:]); err != nil {
		return nil, truncated(err)
	}
	if [8]byte(fixed[:8]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(fixed[8:10]); v != Version {
		if v < Version {
			return nil, fmt.Errorf("%w: file is v%d, which predates segment metadata (this build reads v%d)", ErrVersion, v, Version)
		}
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, v, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(fixed[10:14])
	if hdrLen > maxHeaderBytes {
		return nil, fmt.Errorf("%w: header length %d", ErrCorrupt, hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(tr.r, hdr); err != nil {
		return nil, truncated(err)
	}
	if err := json.Unmarshal(hdr, &tr.meta); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if tr.meta.Txns < 0 {
		return nil, fmt.Errorf("%w: negative txn count", ErrCorrupt)
	}
	return tr, nil
}

// Open opens path for streaming; the caller must Close it.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.close = f
	return r, nil
}

// Meta returns the decoded header.
func (r *Reader) Meta() Meta { return r.meta }

// Close releases the underlying file, if Open provided one.
func (r *Reader) Close() error {
	if r.close != nil {
		return r.close.Close()
	}
	return nil
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *Reader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, truncated(err)
	}
	return v, nil
}

// Next decodes the next transaction record. It returns io.EOF once the
// header-declared count has been read.
func (r *Reader) Next() (*workload.Txn, error) {
	if r.n >= r.meta.Txns {
		return nil, io.EOF
	}
	id, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	typ, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	header, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if id >= uint64(r.meta.Txns) || typ >= uint64(len(r.meta.Types)) || header > 1<<32-1 {
		return nil, fmt.Errorf("%w: txn record %d out of range (id=%d type=%d)", ErrCorrupt, r.n, id, typ)
	}
	if count == 0 || count > r.meta.Entries {
		return nil, fmt.Errorf("%w: txn %d declares %d entries (file total %d)", ErrCorrupt, id, count, r.meta.Entries)
	}
	buf := &trace.Buffer{}
	// Preallocate conservatively: count is attacker-controlled until the
	// entries actually decode, so cap the up-front allocation and let
	// append grow the rest.
	if prealloc := count; prealloc <= 1<<16 {
		buf.Entries = make([]trace.Entry, 0, prealloc)
	}
	for i := uint64(0); i < count; i++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		kind := trace.Kind(v & 3)
		block := v >> 2
		if block > 1<<32-1 || kind > trace.KStore {
			return nil, fmt.Errorf("%w: txn %d entry %d malformed", ErrCorrupt, id, i)
		}
		e := trace.Entry{Block: uint32(block), Kind: kind}
		switch kind {
		case trace.KInstr:
			n, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if n == 0 || n > 0xFFFF {
				return nil, fmt.Errorf("%w: txn %d entry %d has run length %d", ErrCorrupt, id, i, n)
			}
			e.N = uint16(n)
			buf.Instrs += n
		case trace.KLoad:
			buf.Loads++
		case trace.KStore:
			buf.Stores++
		}
		buf.Entries = append(buf.Entries, e)
	}
	r.sums.entries += count
	r.sums.instrs += buf.Instrs
	r.sums.loads += buf.Loads
	r.sums.stores += buf.Stores
	r.sums.instrRuns += uint64(buf.InstrRuns())
	r.n++
	return &workload.Txn{ID: int(id), Type: int(typ), Header: uint32(header), Trace: buf}, nil
}

// Verify consumes any remaining transactions, reads the trailer, and
// checks the CRC plus the header's summary totals against what was
// actually decoded. It must be called after the payload has been (or
// while it is being) read; Load always calls it.
func (r *Reader) Verify() error {
	for r.n < r.meta.Txns {
		if _, err := r.Next(); err != nil {
			return err
		}
	}
	// The digest now covers exactly header + payload (hashing happens on
	// consumed bytes, above the read-ahead buffer); the trailer is read
	// from the raw stream so it never feeds the checksum it carries.
	want := r.r.crc.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(r.raw, tr[:]); err != nil {
		return truncated(err)
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != want {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if extra, err := r.raw.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing byte(s) after trailer (first: %#x)", ErrCorrupt, extra)
	}
	if r.sums.entries != r.meta.Entries || r.sums.instrs != r.meta.Instrs ||
		r.sums.loads != r.meta.Loads || r.sums.stores != r.meta.Stores ||
		r.sums.instrRuns != r.meta.InstrRuns {
		return fmt.Errorf("%w: header totals (entries=%d instrs=%d loads=%d stores=%d instr runs=%d) != decoded (%d/%d/%d/%d/%d)",
			ErrCorrupt, r.meta.Entries, r.meta.Instrs, r.meta.Loads, r.meta.Stores, r.meta.InstrRuns,
			r.sums.entries, r.sums.instrs, r.sums.loads, r.sums.stores, r.sums.instrRuns)
	}
	return nil
}

// Decode reads a complete trace file from r, verifies its checksum and
// structural invariants, and reconstructs the workload set.
func Decode(rd io.Reader) (*workload.Set, Meta, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, Meta{}, err
	}
	meta := r.Meta()
	set := &workload.Set{
		Name:       meta.SetName,
		Types:      meta.Types,
		DataBlocks: meta.DataBlocks,
	}
	if set.Layout, err = meta.layoutOf(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if meta.Txns <= 1<<20 {
		set.Txns = make([]*workload.Txn, 0, meta.Txns)
	}
	for {
		tx, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, meta, err
		}
		set.Txns = append(set.Txns, tx)
	}
	if err := r.Verify(); err != nil {
		return nil, meta, err
	}
	if err := set.Validate(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return set, meta, nil
}

// Load reads, verifies and reconstructs the set saved at path.
func Load(path string) (*workload.Set, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	return Decode(f)
}
