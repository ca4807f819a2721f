package runcache

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"strex/internal/sim"
)

// ThreadRecord preserves the per-thread values result consumers read
// (latency distributions need the cycle stamps, MPKI needs nothing
// more).
type ThreadRecord struct {
	Enqueue uint64 `json:"enq"`
	Start   uint64 `json:"start"`
	Finish  uint64 `json:"finish"`
	Instrs  uint64 `json:"instrs"`
}

// Record is the serialized form of a sim.Result. The worker RPC carries
// it as JSON; the cache stores it in the binary form below.
type Record struct {
	SchemaVersion int            `json:"schema_version"`
	Stats         sim.Stats      `json:"stats"`
	Threads       []ThreadRecord `json:"threads"`
}

// RecordOf projects a result into its cacheable record.
func RecordOf(res sim.Result) Record {
	rec := Record{SchemaVersion: FormatVersion, Stats: res.Stats}
	rec.Threads = make([]ThreadRecord, len(res.Threads))
	for i, t := range res.Threads {
		rec.Threads[i] = ThreadRecord{
			Enqueue: t.EnqueueCycle, Start: t.StartCycle,
			Finish: t.FinishCycle, Instrs: t.Instrs,
		}
	}
	return rec
}

// Result reconstructs a sim.Result. The rebuilt threads carry the cycle
// stamps and instruction counts but no transaction pointers — exactly
// the surface the reporting layers consume.
func (r Record) Result() sim.Result {
	res := sim.Result{Stats: r.Stats}
	res.Threads = make([]*sim.Thread, len(r.Threads))
	for i, t := range r.Threads {
		res.Threads[i] = &sim.Thread{
			EnqueueCycle: t.Enqueue, StartCycle: t.Start,
			FinishCycle: t.Finish, Instrs: t.Instrs,
		}
	}
	return res
}

// The binary result record (results/<hh>/<hash>.rec):
//
//	magic    [4]byte "sxrr"
//	version  byte, recordVersion
//	stats    one uvarint per sim.Stats field, in statFields order
//	threads  uvarint count, then per thread uvarint enq, start, finish, instrs
//	trailer  uint32 little-endian CRC-32 (IEEE) of everything before it
//
// Varints are minimal, so a record has exactly one encoding.
var recordMagic = [4]byte{'s', 'x', 'r', 'r'}

const recordVersion = 1

// errCorruptRecord is returned for every record that is not exactly
// what encodeRecord writes.
var errCorruptRecord = errors.New("runcache: corrupt result record")

// statFields lists every sim.Stats counter in record order. A Stats
// field missing here fails TestRecordRoundTripsEveryStatsField.
func statFields(s *sim.Stats) []*uint64 {
	return []*uint64{&s.Cycles, &s.BusyCycles, &s.Instrs, &s.IMisses, &s.IAccesses,
		&s.DMisses, &s.DAccesses, &s.Switches, &s.Migrations, &s.L2Misses, &s.Invalidations}
}

// encodeRecord returns rec's binary record.
func encodeRecord(rec Record) []byte {
	b := make([]byte, 0, 128+4*binary.MaxVarintLen64*len(rec.Threads))
	b = append(append(b, recordMagic[:]...), recordVersion)
	for _, f := range statFields(&rec.Stats) {
		b = binary.AppendUvarint(b, *f)
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Threads)))
	for _, t := range rec.Threads {
		for _, v := range [4]uint64{t.Enqueue, t.Start, t.Finish, t.Instrs} {
			b = binary.AppendUvarint(b, v)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeRecord parses a binary record. It allocates at most one thread
// slice, bounded by the input length.
func decodeRecord(data []byte) (Record, error) {
	head := len(recordMagic) + 1
	if len(data) < head+4 {
		return Record{}, errCorruptRecord
	}
	body := data[:len(data)-4]
	if [4]byte(body) != recordMagic || body[4] != recordVersion ||
		crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return Record{}, errCorruptRecord
	}
	v := varints(body[head:])
	rec := Record{SchemaVersion: FormatVersion}
	for _, f := range statFields(&rec.Stats) {
		*f = v.next()
	}
	// A thread takes at least four bytes.
	if n := v.next(); n <= uint64(len(v))/4 {
		rec.Threads = make([]ThreadRecord, n)
	} else {
		return Record{}, errCorruptRecord
	}
	for i := range rec.Threads {
		t := &rec.Threads[i]
		t.Enqueue, t.Start, t.Finish, t.Instrs = v.next(), v.next(), v.next(), v.next()
	}
	if v == nil || len(v) != 0 {
		return Record{}, errCorruptRecord
	}
	return rec, nil
}

// varints reads minimal uvarints off the front of a byte slice. A
// truncated, overflowing or non-minimal varint sets it to nil, after
// which every read returns 0; a fully consumed one is empty but not nil.
type varints []byte

func (v *varints) next() uint64 {
	x, n := binary.Uvarint(*v)
	if n <= 0 || (n > 1 && (*v)[n-1] == 0) {
		*v = nil
		return 0
	}
	*v = (*v)[n:]
	return x
}
