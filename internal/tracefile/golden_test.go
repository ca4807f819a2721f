package tracefile

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenFileBytes pins the exact bytes Save writes for a small fixed
// set of workloads. Version is folded into every run-cache key, so any
// change to the bytes a given set encodes to — header fields, header
// totals, payload layout — must come with a Version bump; this test is
// what notices when it does not.
func TestGoldenFileBytes(t *testing.T) {
	golden := []struct {
		workload string
		txns     int
		sha256   string
	}{
		{"Voter", 6, "ca9621e2942c8b345142005ad3d78efb2ef5dc49e113c0d1fe85b4fa19b119c4"},
		{"SmallBank", 12, "c1d7b233df1377787e10635fc6618250d68c3f746d179e2ffd501ea0ec922c11"},
		{"TATP", 8, "64d08340a20dc48833c3c5bdba20b03586f13a683b79886f4f521a18e7aa71d8"},
	}
	for _, g := range golden {
		t.Run(g.workload, func(t *testing.T) {
			set := benchSet(t, g.workload, g.txns)
			path := filepath.Join(t.TempDir(), "golden"+Ext)
			if err := Save(path, set, Provenance{Workload: g.workload, Seed: 7, TypeID: -1}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("%s x%d: file bytes sha256 %s, want %s (%d bytes)", g.workload, g.txns, got, g.sha256, len(data))
			}
		})
	}
}
