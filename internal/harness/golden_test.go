package harness

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenConfig is the tiny deterministic configuration the text snapshots
// are taken under: two seeds (so ±CI fields are non-zero), short runs, the
// K=4 fabric. It is intentionally independent of tinyConfig so unrelated
// test-speed tweaks cannot silently invalidate the snapshots.
func goldenConfig() Config {
	return Config{
		Duration:   6 * sim.Second,
		Warmup:     2 * sim.Second,
		DCDuration: sim.Second,
		DCWarmup:   250 * sim.Millisecond,
		Seeds:      2,
		BaseSeed:   7,
		FatTreeK:   4,
		Subflows:   []int{2, 3},
	}
}

// TestGoldenText locks the rendered text of every registered experiment
// byte-for-byte, and checks that the same collected Result also renders as
// valid JSON and CSV. The committed files under testdata/golden were
// generated from the pre-Collect/Render-split implementation, so a passing
// run proves the structured-result refactor changed no output bytes.
// Regenerate with
//
//	go test ./internal/harness -run TestGoldenText -update
func TestGoldenText(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := goldenConfig()
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "zz-") {
			continue // test-only probes registered by other tests
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r, err := e.CollectResult(context.Background(), cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			var b bytes.Buffer
			if err := RenderText(r, &b); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden for %s (run with -update): %v", e.ID, err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s: output differs from golden %s\n--- got ---\n%s--- want ---\n%s",
					e.ID, path, b.Bytes(), want)
			}
			checkMachineFormats(t, r)
		})
	}
}

// registryIDs lists the registered experiments without the test-only
// probes other tests register.
func registryIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		if !strings.HasPrefix(e.ID, "zz-") {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// TestRunAllRegistryMatchesGoldens: one RunAll over the whole registry, in
// which a Spec that several experiments list runs once and is read by
// each, renders every experiment exactly as its golden, sequentially and
// on two workers. TestGoldenText collects one experiment at a time, so it
// never sees a shared run.
func TestRunAllRegistryMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	ids := registryIDs()
	for _, workers := range []int{1, 2} {
		cfg := goldenConfig()
		cfg.Workers = workers
		var b strings.Builder
		if err := RunAll(context.Background(), cfg, ids, FormatText, &b, nil); err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		sections := strings.Split(b.String(), "\n===== ")[1:]
		if len(sections) != len(ids) {
			t.Fatalf("Workers=%d: %d sections for %d experiments", workers, len(sections), len(ids))
		}
		for i, sec := range sections {
			id, body, _ := strings.Cut(sec, " =====\n")
			if id != ids[i] {
				t.Fatalf("Workers=%d: section %d is %q, want %q", workers, i, id, ids[i])
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if body != string(want) {
				t.Errorf("Workers=%d: %s differs from its golden\n--- got ---\n%s--- want ---\n%s", workers, id, body, want)
			}
		}
	}
}

// TestGoldenCoverageComplete guards the snapshot suite itself: every
// registered experiment must have a committed golden file, and every
// golden file must belong to a registered experiment — so neither a new
// experiment nor a renamed ID can silently fall out of snapshot coverage.
func TestGoldenCoverageComplete(t *testing.T) {
	onDisk := map[string]bool{}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		onDisk[strings.TrimSuffix(e.Name(), ".txt")] = true
	}
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "zz-") {
			continue // test-only probes registered by other tests
		}
		if !onDisk[e.ID] {
			t.Errorf("experiment %s has no golden snapshot (run TestGoldenText with -update)", e.ID)
		}
		delete(onDisk, e.ID)
	}
	for id := range onDisk {
		t.Errorf("golden file %s.txt does not match any registered experiment", id)
	}
}

// checkMachineFormats asserts a collected Result renders as parseable JSON
// (round-tripping to an equal Result) and parseable CSV.
func checkMachineFormats(t *testing.T, r *Result) {
	t.Helper()
	var jb bytes.Buffer
	if err := RenderJSON(r, &jb); err != nil {
		t.Fatalf("%s: RenderJSON: %v", r.ID, err)
	}
	var back Result
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("%s: JSON output does not parse: %v", r.ID, err)
	}
	if !reflect.DeepEqual(&back, r) {
		t.Errorf("%s: JSON round-trip altered the Result", r.ID)
	}
	var cb bytes.Buffer
	if err := RenderCSV(r, &cb); err != nil {
		t.Fatalf("%s: RenderCSV: %v", r.ID, err)
	}
	for i, block := range strings.Split(strings.TrimRight(cb.String(), "\n"), "\n\n") {
		recs, err := csv.NewReader(strings.NewReader(block)).ReadAll()
		if err != nil {
			t.Fatalf("%s: CSV block %d does not parse: %v", r.ID, i, err)
		}
		if i == 0 && len(recs) != len(r.Rows)+1 {
			t.Errorf("%s: CSV has %d records, want header + %d rows", r.ID, len(recs), len(r.Rows))
		}
	}
}
