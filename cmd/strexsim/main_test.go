package main

import "testing"

// TestParseIntsCoreLimit: -cores accepts 1 to 64 (the directory's
// presence masks hold 64 cores) and refuses anything outside.
func TestParseIntsCoreLimit(t *testing.T) {
	if got, err := parseInts("1,64"); err != nil || len(got) != 2 || got[1] != 64 {
		t.Fatalf("parseInts(1,64) = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "65", "4,65"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}
