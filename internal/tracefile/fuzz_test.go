package tracefile

import (
	"bytes"
	"reflect"
	"testing"

	"strex/internal/bench"
	"strex/internal/synth"
)

// FuzzTraceFileRoundTrip feeds arbitrary bytes to the decoder. The
// contract under fuzz: Decode never panics and never over-allocates on
// hostile length fields; and whenever an input does decode, it must
// re-encode and decode back to the identical set (the decoder accepts
// nothing it cannot faithfully represent).
func FuzzTraceFileRoundTrip(f *testing.F) {
	// Seed the corpus with real encodings so the fuzzer starts from
	// structurally valid files and mutates inward. Small sets keep the
	// per-exec cost low (mutation time scales with input size).
	for _, name := range []string{"SmallBank", "Synth"} {
		set, err := bench.BuildSet(name, 2, bench.Options{
			Seed:  11,
			Synth: synth.Params{FootprintUnits: 0.5, Types: 1, DataPerTxn: 4},
		})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, set, Provenance{Workload: name, Seed: 11, TypeID: -1}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("strextrc"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		set, meta, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		var buf bytes.Buffer
		if err := Encode(&buf, set, meta.Provenance); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		set2, _, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded input failed: %v", err)
		}
		if !reflect.DeepEqual(set, set2) {
			t.Fatal("round trip not a fixed point")
		}
	})
}
