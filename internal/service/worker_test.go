package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strex/internal/shard"
	"strex/internal/sim"
)

// TestWorkerRejectsUnknownFields: the run RPC, like the job handler,
// accepts only the fields WireSpec declares. A spec that runs fine as
// sent must get a 400 once it carries an unknown field, at the top
// level or nested, instead of running with the field silently dropped.
func TestWorkerRejectsUnknownFields(t *testing.T) {
	hs := httptest.NewServer(NewWorker(WorkerConfig{Parallel: 1}).Handler())
	defer hs.Close()
	ws := shard.WireSpec{
		Config:  sim.DefaultConfig(2),
		SchedID: "base",
		Set:     shard.SetRef{Workload: "SmallBank", Seed: 9, Txns: 8, TypeID: -1},
	}
	valid, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e) // only error replies are read
		return resp.StatusCode, e.Error
	}
	if code, msg := post(valid); code != http.StatusOK {
		t.Fatalf("valid spec: status %d (%s), want 200", code, msg)
	}
	for _, tc := range []struct{ name, body string }{
		{"top level", strings.Replace(string(valid), `{`, `{"priority":1,`, 1)},
		{"nested", strings.Replace(string(valid), `"set":{`, `"set":{"warehouses":2,`, 1)},
	} {
		if tc.body == string(valid) {
			t.Fatalf("%s: test failed to inject the field", tc.name)
		}
		if code, msg := post([]byte(tc.body)); code != http.StatusBadRequest || !strings.Contains(msg, "unknown field") {
			t.Errorf("%s: status %d (%s), want 400 naming the unknown field", tc.name, code, msg)
		}
	}
}
