package shard

import (
	"encoding/json"
	"fmt"
	"testing"

	"strex/internal/bench"
	"strex/internal/runcache"
	"strex/internal/synth"
)

func TestSetRefKeyMatchesRuncache(t *testing.T) {
	ref := SetRef{Workload: "SmallBank", Seed: 9, Scale: 2, Txns: 16, TypeID: -1}
	want := runcache.SetKey{Workload: "SmallBank", Seed: 9, Scale: 2, Txns: 16, TypeID: -1}
	if ref.Key() != want {
		t.Fatalf("Key() = %+v, want %+v", ref.Key(), want)
	}
	if ref.SetID() != want.Hash() {
		t.Fatalf("SetID() = %s, want plain hash %s", ref.SetID(), want.Hash())
	}

	// Synth params travel structurally; both sides derive Extra by the
	// same %#v canonicalization, so the keys cannot drift apart.
	p := synth.Params{FootprintUnits: 4, Types: 2, DataReuse: 0.5}
	sref := SetRef{Workload: "Synth", Seed: 7, Txns: 12, TypeID: 1, Synth: &p}
	skey := sref.Key()
	if want := fmt.Sprintf("%#v", p); skey.Extra != want {
		t.Fatalf("synth Extra = %q, want %q", skey.Extra, want)
	}

	// The replicate derivation decorates the ID exactly like the
	// experiment suite's derived-set addressing.
	rref := ref
	rref.Replicate = 10
	if got, want := rref.SetID(), want.Hash()+"+replicate10"; got != want {
		t.Fatalf("replicated SetID = %s, want %s", got, want)
	}
}

func TestSetRefJSONRoundTrip(t *testing.T) {
	p := synth.Params{FootprintUnits: 3.25, Types: 5, DataReuse: 0.375}
	ref := SetRef{Workload: "Synth", Seed: 11, Txns: 24, TypeID: -1, Synth: &p, Replicate: 3}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	var back SetRef
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The wire invariant: the decoded ref addresses the same artifacts.
	// (Float params survive the JSON round trip exactly; that is what
	// keeps the %#v-derived Extra stable across processes.)
	if back.Key() != ref.Key() || back.SetID() != ref.SetID() {
		t.Fatalf("round-tripped ref addresses diverge:\n got %+v\nwant %+v", back, ref)
	}
}

func TestMaterializeMatchesDirectBuild(t *testing.T) {
	ref := SetRef{Workload: "SmallBank", Seed: 9, Txns: 8, TypeID: -1}
	set, err := ref.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bench.BuildSet("SmallBank", 8, bench.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Txns) != len(want.Txns) {
		t.Fatalf("materialized %d txns, direct build %d", len(set.Txns), len(want.Txns))
	}
	for i := range set.Txns {
		if set.Txns[i].Type != want.Txns[i].Type {
			t.Fatalf("txn %d type diverges: %v vs %v", i, set.Txns[i].Type, want.Txns[i].Type)
		}
	}

	rep := ref
	rep.Replicate = 3
	rset, err := rep.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rset.Txns) != 3*len(want.Txns) {
		t.Fatalf("replicated set has %d txns, want %d", len(rset.Txns), 3*len(want.Txns))
	}
}

func TestMaterializeSharesCacheArtifact(t *testing.T) {
	c, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := SetRef{Workload: "SmallBank", Seed: 3, Txns: 8, TypeID: -1}
	if _, err := ref.Materialize(c); err != nil {
		t.Fatal(err)
	}
	before := bench.Generations()
	if _, err := ref.Materialize(c); err != nil {
		t.Fatal(err)
	}
	if got := bench.Generations(); got != before {
		t.Fatalf("second Materialize regenerated (%d -> %d); the cached artifact must serve it", before, got)
	}
}

func TestMaterializeRejectsAliases(t *testing.T) {
	// Aliases would fork the fleet-shared key space; the wire format
	// demands canonical names.
	if _, err := (SetRef{Workload: "smallbank", Seed: 1, Txns: 4, TypeID: -1}).Materialize(nil); err == nil {
		t.Fatal("alias workload name accepted")
	}
	if _, err := (SetRef{Workload: "no-such-workload", Seed: 1, Txns: 4, TypeID: -1}).Materialize(nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPartitionStableAndInRange(t *testing.T) {
	// Golden: the partition function is cross-process state (coordinator
	// restarts must re-home keys identically).
	if got := Partition("deadbeef", 4); got != Partition("deadbeef", 4) {
		t.Fatal("Partition not deterministic")
	}
	if Partition("anything", 1) != 0 || Partition("anything", 0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
	counts := make([]int, 4)
	for i := 0; i < 256; i++ {
		h := Partition(fmt.Sprintf("key-%d", i), 4)
		if h < 0 || h >= 4 {
			t.Fatalf("Partition out of range: %d", h)
		}
		counts[h]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d never chosen over 256 keys: skewed partition %v", s, counts)
		}
	}
}

func TestParseSchedID(t *testing.T) {
	for _, id := range []string{"base", "slicc", "strex/w30/t10", "strex/w5/t2"} {
		if err := ParseSchedID(id); err != nil {
			t.Errorf("ParseSchedID(%q) = %v, want nil", id, err)
		}
	}
	// The hybrid is resolved to the mechanism it picks before a run is
	// submitted, so no hybrid spelling is on the wire.
	for _, id := range []string{"", "strex", "strex/w0/t10", "strex/w30/t10x", "strex/w30/t10/t4", "strex/w+30/t010",
		"hybrid", "hybrid/s3", "hybrid/3", "hybrid/s0", "fig4:base", "Base"} {
		if err := ParseSchedID(id); err == nil {
			t.Errorf("ParseSchedID(%q) accepted, want error", id)
		}
	}
}

func TestSchedulerForBuildsEveryKind(t *testing.T) {
	for id, name := range map[string]string{"base": "Base", "slicc": "SLICC", "strex/w30/t10": "STREX"} {
		mk, err := SchedulerFor(id)
		if err != nil {
			t.Fatalf("SchedulerFor(%q): %v", id, err)
		}
		if s := mk(); s == nil || s.Name() != name {
			t.Fatalf("SchedulerFor(%q) built %v, want %s", id, s, name)
		}
	}
	if _, err := SchedulerFor("bogus"); err == nil {
		t.Fatal("bogus scheduler id accepted")
	}
}

func TestWireSpecPartitionKey(t *testing.T) {
	ref := SetRef{Workload: "SmallBank", Seed: 9, Txns: 8, TypeID: -1}
	ws := &WireSpec{SchedID: "base", Set: ref}
	// Without a cache key the partition key is the run identity hash —
	// a pure function of content, stable across processes.
	want := runcache.RunKey{Config: ws.Config, Sched: "base", SetID: ref.SetID()}.Hash()
	if got := ws.PartitionKey(); got != want {
		t.Fatalf("PartitionKey = %s, want run hash %s", got, want)
	}
	ws.CacheKey = "cafe"
	if got := ws.PartitionKey(); got != "cafe" {
		t.Fatalf("PartitionKey = %s, want the explicit cache key", got)
	}
}
