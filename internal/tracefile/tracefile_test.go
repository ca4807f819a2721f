package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"strex/internal/bench"
	"strex/internal/workload"
)

// benchSet generates a small registry workload for round-trip tests.
func benchSet(t testing.TB, name string, txns int) *workload.Set {
	t.Helper()
	set, err := bench.BuildSet(name, txns, bench.Options{Seed: 7})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return set
}

func encode(t testing.TB, set *workload.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, set, Provenance{Workload: set.Name, Seed: 7, TypeID: -1}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripEveryWorkload is the codec's core contract: for every
// registered workload, decode(encode(set)) reproduces the set exactly —
// entries, counters, layout, headers, the lot.
func TestRoundTripEveryWorkload(t *testing.T) {
	for _, info := range bench.Workloads() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			set := benchSet(t, info.Name, 12)
			data := encode(t, set)
			got, meta, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(set, got) {
				t.Fatalf("round trip altered the set\nbefore: %d txns, %d instrs\nafter:  %d txns, %d instrs",
					len(set.Txns), set.Instrs(), len(got.Txns), got.Instrs())
			}
			if meta.Provenance.Workload != set.Name || meta.Txns != len(set.Txns) || meta.Instrs != set.Instrs() {
				t.Fatalf("meta mismatch: %+v", meta)
			}
			if got.Layout == nil || got.Layout.CodeBlocks() != set.Layout.CodeBlocks() {
				t.Fatalf("layout not restored: %v", got.Layout)
			}
		})
	}
}

func TestSaveLoadAndOpen(t *testing.T) {
	set := benchSet(t, "TATP", 8)
	path := filepath.Join(t.TempDir(), "tatp"+Ext)
	if err := Save(path, set, Provenance{Workload: "TATP", Seed: 7, Scale: 100, TypeID: -1}); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, meta, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(set, got) {
		t.Fatal("save/load altered the set")
	}
	if meta.Provenance.Scale != 100 || meta.Provenance.Seed != 7 {
		t.Fatalf("provenance lost: %+v", meta.Provenance)
	}
	// Streaming open: header without decoding, then txn-by-txn.
	r, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer r.Close()
	if r.Meta().Txns != len(set.Txns) {
		t.Fatalf("open meta txns = %d, want %d", r.Meta().Txns, len(set.Txns))
	}
	n := 0
	for {
		tx, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !reflect.DeepEqual(tx, set.Txns[n]) {
			t.Fatalf("txn %d differs when streamed", n)
		}
		n++
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCorruptionDetected flips, truncates and rewrites bytes; every
// mutation must surface as an error (never a panic, never silent
// acceptance).
func TestCorruptionDetected(t *testing.T) {
	data := encode(t, benchSet(t, "Voter", 6))

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 4, len(data) / 2, len(data) - 1} {
			_, _, err := Decode(bytes.NewReader(data[:len(data)-cut]))
			if err == nil {
				t.Fatalf("truncation by %d bytes not detected", cut)
			}
		}
	})

	t.Run("bad-crc", func(t *testing.T) {
		for _, off := range []int{20, len(data) / 2, len(data) - 10} {
			mut := bytes.Clone(data)
			mut[off] ^= 0x40
			if _, _, err := Decode(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at %d not detected", off)
			}
		}
		// A flip inside the 4 trailer bytes must specifically be a
		// checksum error.
		mut := bytes.Clone(data)
		mut[len(mut)-2] ^= 0x01
		if _, _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("trailer flip: got %v, want ErrChecksum", err)
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		mut := bytes.Clone(data)
		binary.LittleEndian.PutUint16(mut[8:10], Version+1)
		if _, _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	// A pre-segment-metadata (v1) file must fail with ErrVersion and a
	// message that names the actual problem, not a generic decode error.
	t.Run("version-predates-segments", func(t *testing.T) {
		mut := bytes.Clone(data)
		binary.LittleEndian.PutUint16(mut[8:10], 1)
		_, _, err := Decode(bytes.NewReader(mut))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
		if !strings.Contains(err.Error(), "predates segment metadata") {
			t.Fatalf("v1 error does not explain itself: %v", err)
		}
	})

	// A header whose instruction-run total is off by one, written with
	// a valid CRC, must fail the decoded-totals check.
	t.Run("instr-runs-off-by-one", func(t *testing.T) {
		set := benchSet(t, "Voter", 6)
		meta := metaOf(set, Provenance{Workload: set.Name, Seed: 7, TypeID: -1})
		for _, runs := range []uint64{meta.InstrRuns - 1, meta.InstrRuns + 1} {
			bad := meta
			bad.InstrRuns = runs
			var buf bytes.Buffer
			w, err := NewWriter(&buf, bad)
			if err != nil {
				t.Fatal(err)
			}
			for _, tx := range set.Txns {
				if err := w.WriteTxn(tx); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Decode(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("instr runs %d (true %d): got %v, want ErrCorrupt", runs, meta.InstrRuns, err)
			}
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		mut := bytes.Clone(data)
		mut[0] = 'X'
		if _, _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		mut := append(bytes.Clone(data), 0xAB)
		if _, _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("empty-and-tiny", func(t *testing.T) {
		for _, in := range [][]byte{nil, {0}, []byte("strextrc")} {
			if _, _, err := Decode(bytes.NewReader(in)); err == nil {
				t.Fatalf("input %v accepted", in)
			}
		}
	})
}

// TestWriterCountMismatch: the header-declared count is load-bearing
// (the reader trusts it for EOF), so the writer must refuse to close
// short or run over.
func TestWriterCountMismatch(t *testing.T) {
	set := benchSet(t, "Voter", 4)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, metaOf(set, Provenance{Workload: set.Name, TypeID: -1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns[:3] {
		if err := w.WriteTxn(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("short close accepted")
	}
	// Overrun.
	var buf2 bytes.Buffer
	meta := metaOf(set, Provenance{Workload: set.Name, TypeID: -1})
	meta.Txns = 1
	w2, err := NewWriter(&buf2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteTxn(set.Txns[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteTxn(set.Txns[1]); err == nil {
		t.Fatal("overrun accepted")
	}
}

func BenchmarkEncode(b *testing.B) {
	set := benchSet(b, "TPC-C-1", 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, set, Provenance{Workload: set.Name, TypeID: -1}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkDecode(b *testing.B) {
	set := benchSet(b, "TPC-C-1", 32)
	var buf bytes.Buffer
	if err := Encode(&buf, set, Provenance{Workload: set.Name, TypeID: -1}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
