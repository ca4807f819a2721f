package runcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"strex/internal/atomicfile"
	"strex/internal/core"
)

// The footprint record (footprints/<hh>/<hash>.fp) memoizes the hybrid's
// profile of a set: its core.FPTable, a pure function of the set and the
// per-type sample count. With it, a hybrid run picks its mechanism, and
// so its run key, without loading the set.
//
//	magic    [4]byte "sxfp"
//	version  byte, footprintVersion
//	rows     uvarint count, then per row in ascending header order:
//	         uvarint header, uvarint units, uvarint name length, name bytes
//	trailer  uint32 little-endian CRC-32 (IEEE) of everything before it
//
// Varints are minimal and headers strictly ascending, so a table has
// exactly one encoding.
var footprintMagic = [4]byte{'s', 'x', 'f', 'p'}

const footprintVersion = 1

// errCorruptFootprint is returned for every footprint record that is not
// exactly what encodeFootprint writes.
var errCorruptFootprint = errors.New("runcache: corrupt footprint record")

// footprintHash is the content address of a set's profile at a sample
// count: the set's SetKey hash plus the count.
func footprintHash(key SetKey, samples int) string {
	return digest("footprint", fmt.Sprintf("rc%d|set=%s|samples=%d", FormatVersion, key.Hash(), samples))
}

func (c *Cache) footprintPath(hash string) string {
	return filepath.Join(c.dir, "footprints", hash[:2], hash+".fp")
}

// encodeFootprint returns fp's footprint record.
func encodeFootprint(fp *core.FPTable) []byte {
	rows := fp.Rows()
	b := make([]byte, 0, 64)
	b = append(append(b, footprintMagic[:]...), footprintVersion)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = binary.AppendUvarint(b, uint64(r.Header))
		b = binary.AppendUvarint(b, uint64(r.Units))
		b = binary.AppendUvarint(b, uint64(len(r.Name)))
		b = append(b, r.Name...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeFootprint parses a footprint record. It allocates the row slice
// and the names, each bounded by the input length.
func decodeFootprint(data []byte) (*core.FPTable, error) {
	head := len(footprintMagic) + 1
	if len(data) < head+4 {
		return nil, errCorruptFootprint
	}
	body := data[:len(data)-4]
	if [4]byte(body) != footprintMagic || body[4] != footprintVersion ||
		crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errCorruptFootprint
	}
	v := varints(body[head:])
	// A row takes at least three bytes.
	n := v.next()
	if n > uint64(len(v))/3 {
		return nil, errCorruptFootprint
	}
	rows := make([]core.FPRow, n)
	for i := range rows {
		header, units, nameLen := v.next(), v.next(), v.next()
		if v == nil || header > math.MaxUint32 || units > math.MaxInt32 || nameLen > uint64(len(v)) ||
			(i > 0 && uint32(header) <= rows[i-1].Header) {
			return nil, errCorruptFootprint
		}
		rows[i] = core.FPRow{Header: uint32(header), Units: int(units), Name: string(v[:nameLen])}
		v = v[nameLen:]
	}
	if v == nil || len(v) != 0 {
		return nil, errCorruptFootprint
	}
	return core.NewFPTable(rows), nil
}

// GetFootprint loads the memoized profile of the set key names, taken
// at samples transactions per type. A record that is absent, or fails
// its magic, version, length or CRC check, is a miss.
func (c *Cache) GetFootprint(key SetKey, samples int) (*core.FPTable, bool) {
	if !c.Enabled() {
		return nil, false
	}
	data, err := os.ReadFile(c.footprintPath(footprintHash(key, samples)))
	var fp *core.FPTable
	if err == nil {
		fp, err = decodeFootprint(data)
	}
	if err != nil {
		c.miss(&c.footprintMisses, &c.footprintCorrupt, err)
		return nil, false
	}
	c.footprintHits.Add(1)
	c.bytesRead.Add(int64(len(data)))
	return fp, true
}

// PutFootprint stores fp as the profile of the set key names at samples
// transactions per type, atomically.
func (c *Cache) PutFootprint(key SetKey, samples int, fp *core.FPTable) error {
	if !c.Enabled() {
		return nil
	}
	data := encodeFootprint(fp)
	if err := atomicfile.WriteFile(c.footprintPath(footprintHash(key, samples)), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return err
	}
	c.bytesWritten.Add(int64(len(data)))
	return nil
}
