package runcache

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"strex/internal/sim"
)

// extremeRecord fills every sim.Stats field, found by reflection, with a
// distinct value, the first being 2^64-1, and adds threads whose stamps
// span every varint width.
func extremeRecord(t testing.TB) Record {
	t.Helper()
	rec := Record{SchemaVersion: FormatVersion}
	st := reflect.ValueOf(&rec.Stats).Elem()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("sim.Stats.%s is %s: the record codec stores uint64 counters only",
				st.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(math.MaxUint64 >> (5 * i))
	}
	rec.Threads = []ThreadRecord{
		{},
		{Enqueue: math.MaxUint64, Start: math.MaxUint64 - 1, Finish: 1 << 63, Instrs: 1},
		{Enqueue: 1<<7 - 1, Start: 1 << 7, Finish: 1<<14 - 1, Instrs: 1 << 56},
	}
	return rec
}

// sampleRecord is a realistic record: cycle stamps in the millions.
func sampleRecord(threads int) Record {
	rec := Record{SchemaVersion: FormatVersion, Stats: sim.Stats{
		Cycles: 51_234_567, BusyCycles: 98_765_432, Instrs: 12_345_678,
		IMisses: 234_567, IAccesses: 12_000_000, DMisses: 34_567, DAccesses: 3_456_789,
		Switches: 1_234, Migrations: 56, L2Misses: 7_890, Invalidations: 321,
	}}
	for i := 0; i < threads; i++ {
		start := uint64(i) * 311_111
		rec.Threads = append(rec.Threads, ThreadRecord{
			Enqueue: uint64(i) * 1_000, Start: start,
			Finish: start + 1_234_567 + uint64(i)*97, Instrs: 77_160 + uint64(i),
		})
	}
	return rec
}

// TestRecordRoundTripsEveryStatsField is the codec's coverage check: a
// sim.Stats field added without a line in statFields decodes as zero
// and fails here.
func TestRecordRoundTripsEveryStatsField(t *testing.T) {
	rec := extremeRecord(t)
	got, err := decodeRecord(encodeRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip altered the record\n got %+v\nwant %+v", got, rec)
	}
	c := testCache(t)
	if err := c.PutResult("ab01", rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.GetResult("ab01"); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("cache round trip: ok=%v\n got %+v\nwant %+v", ok, got, rec)
	}
}

// TestRecordGoldenBytes pins the record layout. A change to the bytes a
// record encodes to must bump recordVersion, so that records written
// before the change read as corrupt rather than as wrong numbers.
func TestRecordGoldenBytes(t *testing.T) {
	const want = "73787272" + "01" + // magic, version
		"878eb718" + "f8948c2f" + "cea0f101" + "bfa40e" + "80b6dc05" + "8f8e02" + // stats
		"959cd301" + "d209" + "38" + "8fd601" + "c102" +
		"02" + "0000c8ea0400" + "7ce807b7fe1201" + // threads
		"bfaf1ac9" // CRC-32
	got := hex.EncodeToString(encodeRecord(Record{Stats: sim.Stats{
		Cycles: 51_234_567, BusyCycles: 98_765_432, Instrs: 3_952_718,
		IMisses: 234_047, IAccesses: 12_000_000, DMisses: 34_575, DAccesses: 3_460_629,
		Switches: 1_234, Migrations: 56, L2Misses: 27_407, Invalidations: 321,
	}, Threads: []ThreadRecord{
		{Enqueue: 0, Start: 0, Finish: 79_176, Instrs: 0},
		{Enqueue: 124, Start: 1_000, Finish: 311_095, Instrs: 1},
	}}))
	if got != want {
		t.Fatalf("record bytes\n got %s\nwant %s", got, want)
	}
}

// TestCorruptRecordIsACountedMiss: every single-byte change and every
// truncation of a stored record reads as a miss and counts as corrupt,
// while an absent record, or one in the retired JSON form, counts as a
// plain miss.
func TestCorruptRecordIsACountedMiss(t *testing.T) {
	good := encodeRecord(sampleRecord(3))
	for off := range good {
		for mask := 1; mask < 256; mask++ {
			mut := bytes.Clone(good)
			mut[off] ^= byte(mask)
			if _, err := decodeRecord(mut); err == nil {
				t.Fatalf("byte %d ^ %#x accepted", off, mask)
			}
		}
	}

	c := testCache(t)
	const key = "cd02"
	path := filepath.Join(c.Dir(), "results", key[:2], key+".rec")
	var bad [][]byte
	for off := range good {
		mut := bytes.Clone(good)
		mut[off] ^= 0x10
		bad = append(bad, mut)
	}
	for n := 0; n < len(good); n++ {
		bad = append(bad, good[:n])
	}
	// One decimal digit of a thread's finish stamp changed under the
	// original checksum: the retired JSON record served this one.
	tampered := sampleRecord(3)
	tampered.Threads[1].Finish += 10
	forged := encodeRecord(tampered)
	bad = append(bad, append(forged[:len(forged)-4:len(forged)-4], good[len(good)-4:]...))

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range bad {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetResult(key); ok {
			t.Fatalf("corrupt record %d (%x) served", i, data)
		}
		if st := c.Stats(); st.ResultCorrupt != int64(i+1) || st.ResultMisses != int64(i+1) {
			t.Fatalf("after %d corrupt reads: %d misses, %d corrupt", i+1, st.ResultMisses, st.ResultCorrupt)
		}
	}

	// The re-run's store overwrites the corrupt file.
	if err := c.PutResult(key, sampleRecord(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResult(key); !ok {
		t.Fatal("rewritten record missed")
	}

	// Absent, and present only as a JSON record: plain misses.
	const other = "ef03"
	js, err := json.Marshal(sampleRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(c.Dir(), "results", other[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "results", other[:2], other+".json"), js, 0o644); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for _, k := range []string{other, "0000"} {
		if _, ok := c.GetResult(k); ok {
			t.Fatalf("%s hit", k)
		}
	}
	if st := c.Stats(); st.ResultMisses != before.ResultMisses+2 || st.ResultCorrupt != before.ResultCorrupt {
		t.Fatalf("absent reads: misses %d -> %d, corrupt %d -> %d",
			before.ResultMisses, st.ResultMisses, before.ResultCorrupt, st.ResultCorrupt)
	}
}

// FuzzResultRecord: on arbitrary bytes the decoder never panics, never
// allocates more than a small multiple of its input, and accepts only
// records that re-encode to the same bytes.
func FuzzResultRecord(f *testing.F) {
	for _, rec := range []Record{sampleRecord(0), sampleRecord(3), extremeRecord(f)} {
		f.Add(encodeRecord(rec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeRecord(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if again := encodeRecord(rec); !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently\n in %x\nout %x", data, again)
		}
	})
}

// BenchmarkRecordDecode compares the binary record with the JSON form
// the cache stored before it.
func BenchmarkRecordDecode(b *testing.B) {
	for _, threads := range []int{3, 12, 50, 160} {
		rec := sampleRecord(threads)
		bin := encodeRecord(rec)
		js, err := json.Marshal(rec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("json/threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(js)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r Record
				if err := json.Unmarshal(js, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(bin)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeRecord(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
