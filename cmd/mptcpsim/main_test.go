package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim"
)

// TestLoadResultsRejectsVacuousFiles pins the diff-input guard: files that
// parse but hold no results (null, [], {}) must be rejected instead of
// making any diff against them pass vacuously.
func TestLoadResultsRejectsVacuousFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, tc := range []struct{ name, content string }{
		{"null.json", "null"},
		{"empty-array.json", "[]"},
		{"null-elements.json", "[null, null]"},
		{"empty-object.json", "{}"},
		{"empty-objects-array.json", "[{}, {}]"},
	} {
		if _, err := loadResults(write(tc.name, tc.content)); err == nil {
			t.Errorf("%s: accepted a file with no results", tc.name)
		} else if !strings.Contains(err.Error(), "contains no results") {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}

	if _, err := loadResults(write("garbage.json", "not json")); err == nil {
		t.Error("accepted non-JSON input")
	}
	if _, err := loadResults(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("accepted a missing file")
	}

	one := `{"id":"fig1b","columns":[{"name":"x"}],"rows":[[{"value":1}]]}`
	rs, err := loadResults(write("one.json", one))
	if err != nil || len(rs) != 1 || rs[0].ID != "fig1b" {
		t.Fatalf("single result: %v, %v", rs, err)
	}
	rs, err = loadResults(write("many.json", "["+one+"]"))
	if err != nil || len(rs) != 1 || rs[0].ID != "fig1b" {
		t.Fatalf("array result: %v, %v", rs, err)
	}
}

// TestCampaignReportsOutputError: a result that cannot be written is a
// failure, in either format — /dev/full accepts the open and refuses every
// byte, as a full disk does.
func TestCampaignReportsOutputError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	spec := *mptcpsim.DefaultCampaign()
	spec.N = 1
	for _, format := range []string{"text", "json"} {
		if err := runCampaign(context.Background(), spec, 1, format, "/dev/full"); err == nil {
			t.Errorf("-format %s -o /dev/full reported success", format)
		}
	}
	out := filepath.Join(t.TempDir(), "result.txt")
	if err := runCampaign(context.Background(), spec, 1, "text", out); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(out); err != nil || !strings.Contains(string(data), "user_goodput_mbps") {
		t.Errorf("result file holds %q, %v", data, err)
	}
}
