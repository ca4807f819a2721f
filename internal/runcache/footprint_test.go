package runcache

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"strex/internal/bench"
	"strex/internal/core"
)

// sampleFootprint is a three-type table with names, like TPC-E's.
func sampleFootprint() *core.FPTable {
	return core.NewFPTable([]core.FPRow{
		{Header: 4096, Name: "Broker", Units: 7},
		{Header: 70_000, Name: "Market", Units: 9},
		{Header: 1 << 20, Name: "", Units: 1},
	})
}

// TestFootprintRoundTrip: a measured profile survives the record and the
// cache unchanged, under a key that separates sets and sample counts.
func TestFootprintRoundTrip(t *testing.T) {
	set, err := bench.BuildSet("TPC-E", 24, bench.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []*core.FPTable{
		core.MeasureFPTable(set, 3),
		sampleFootprint(),
		core.NewFPTable(nil),
		core.NewFPTable([]core.FPRow{{Header: math.MaxUint32, Name: "é\x00", Units: math.MaxInt32}}),
	} {
		got, err := decodeFootprint(encodeFootprint(fp))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows(), fp.Rows()) {
			t.Fatalf("round trip altered the table\n got %+v\nwant %+v", got.Rows(), fp.Rows())
		}
	}

	c := testCache(t)
	key := SetKey{Workload: "TPC-E", Seed: 5, Txns: 24, TypeID: -1}
	fp := core.MeasureFPTable(set, 3)
	if _, ok := c.GetFootprint(key, 3); ok {
		t.Fatal("empty cache hit")
	}
	if err := c.PutFootprint(key, 3, fp); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetFootprint(key, 3)
	if !ok || !reflect.DeepEqual(got.Rows(), fp.Rows()) {
		t.Fatalf("cache round trip: ok=%v\n got %+v\nwant %+v", ok, got, fp.Rows())
	}
	if got.AverageUnits() != fp.AverageUnits() || got.ChooseSLICC(8) != fp.ChooseSLICC(8) {
		t.Fatal("stored profile picks differently")
	}
	other := key
	other.Seed = 6
	for _, miss := range []struct {
		key     SetKey
		samples int
	}{{key, 4}, {other, 3}} {
		if _, ok := c.GetFootprint(miss.key, miss.samples); ok {
			t.Fatalf("%+v at %d samples hit another set's profile", miss.key, miss.samples)
		}
	}
	st := c.Stats()
	if st.FootprintHits != 1 || st.FootprintMisses != 3 || st.FootprintCorrupt != 0 {
		t.Fatalf("footprint stats %+v, want 1 hit, 3 plain misses", st)
	}
}

// TestFootprintGoldenBytes pins the record layout. A change to the bytes
// a table encodes to must bump footprintVersion, so that records written
// before the change read as corrupt rather than as a wrong profile.
func TestFootprintGoldenBytes(t *testing.T) {
	const want = "73786670" + "01" + // magic, version
		"03" + // rows
		"8020" + "07" + "06" + "42726f6b6572" + // 4096, 7 units, "Broker"
		"f0a204" + "09" + "06" + "4d61726b6574" + // 70000, 9 units, "Market"
		"808040" + "01" + "00" + // 1<<20, 1 unit, no name
		"65deaf50" // CRC-32
	if got := hex.EncodeToString(encodeFootprint(sampleFootprint())); got != want {
		t.Fatalf("footprint bytes\n got %s\nwant %s", got, want)
	}
}

// TestCorruptFootprintIsACountedMiss: every single-byte change and every
// truncation of a stored footprint record reads as a miss and counts as
// corrupt; the re-profiled table's store overwrites it.
func TestCorruptFootprintIsACountedMiss(t *testing.T) {
	good := encodeFootprint(sampleFootprint())
	for off := range good {
		for mask := 1; mask < 256; mask++ {
			mut := bytes.Clone(good)
			mut[off] ^= byte(mask)
			if _, err := decodeFootprint(mut); err == nil {
				t.Fatalf("byte %d ^ %#x accepted", off, mask)
			}
		}
	}

	c := testCache(t)
	key := SetKey{Workload: "TPC-E", Seed: 5, Txns: 24, TypeID: -1}
	hash := footprintHash(key, 3)
	path := filepath.Join(c.Dir(), "footprints", hash[:2], hash+".fp")
	var bad [][]byte
	for off := range good {
		mut := bytes.Clone(good)
		mut[off] ^= 0x10
		bad = append(bad, mut)
	}
	for n := 0; n < len(good); n++ {
		bad = append(bad, good[:n])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range bad {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetFootprint(key, 3); ok {
			t.Fatalf("corrupt footprint %d (%x) served", i, data)
		}
		if st := c.Stats(); st.FootprintCorrupt != int64(i+1) || st.FootprintMisses != int64(i+1) {
			t.Fatalf("after %d corrupt reads: %d misses, %d corrupt", i+1, st.FootprintMisses, st.FootprintCorrupt)
		}
	}
	if err := c.PutFootprint(key, 3, sampleFootprint()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetFootprint(key, 3); !ok {
		t.Fatal("rewritten footprint missed")
	}
}

// FuzzFootprintRecord: on arbitrary bytes the decoder never panics,
// never allocates more than a small multiple of its input, and accepts
// only records that re-encode to the same bytes.
func FuzzFootprintRecord(f *testing.F) {
	for _, fp := range []*core.FPTable{core.NewFPTable(nil), sampleFootprint()} {
		f.Add(encodeFootprint(fp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fp, err := decodeFootprint(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if again := encodeFootprint(fp); !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently\n in %x\nout %x", data, again)
		}
	})
}
