package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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
// byte-for-byte, and its RenderJSON and RenderCSV bytes by their SHA-256
// in testdata/machine.sum; it also checks that the JSON and CSV parse. The
// committed files under testdata/golden were generated from the
// pre-Collect/Render-split implementation, so a passing run proves the
// structured-result refactor changed no output bytes. Regenerate both with
//
//	go test ./internal/harness -run TestGoldenText -update
func TestGoldenText(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := goldenConfig()
	sums := loadMachineSums(t)
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
			checkMachineFormats(t, r, sums)
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

// machineSumPath locks every experiment's JSON and CSV bytes: one
// "<sha256>  <id>.<json|csv>" line per rendering, in registry order. It
// sits outside testdata/golden, whose files are all text snapshots.
var machineSumPath = filepath.Join("testdata", "machine.sum")

// machineSums holds the SHA-256 of each rendering by "<id>.<json|csv>":
// the lock to check against, or under -update the sums to write back.
type machineSums struct {
	mu   sync.Mutex
	sums map[string]string
}

// loadMachineSums reads the lock. Under -update a missing lock is an empty
// one, and the lock is rewritten once every subtest is done, keeping the
// entries of experiments this run did not render.
func loadMachineSums(t *testing.T) *machineSums {
	m := &machineSums{sums: map[string]string{}}
	b, err := os.ReadFile(machineSumPath)
	if err != nil && !*updateGolden {
		t.Fatalf("missing machine lock (run with -update): %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok {
			m.sums[name] = sum
		}
	}
	if *updateGolden {
		t.Cleanup(func() {
			var b strings.Builder
			for _, id := range registryIDs() {
				for _, name := range []string{id + ".json", id + ".csv"} {
					if sum, ok := m.sums[name]; ok {
						fmt.Fprintf(&b, "%s  %s\n", sum, name)
					}
				}
			}
			if err := os.WriteFile(machineSumPath, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	return m
}

// check compares the SHA-256 of one rendering with the lock, or records it
// under -update.
func (m *machineSums) check(t *testing.T, name string, b []byte) {
	t.Helper()
	h := sha256.Sum256(b)
	sum := hex.EncodeToString(h[:])
	m.mu.Lock()
	defer m.mu.Unlock()
	if *updateGolden {
		m.sums[name] = sum
	} else if want := m.sums[name]; sum != want {
		t.Errorf("%s: SHA-256 %s, %s has %q", name, sum, machineSumPath, want)
	}
}

// checkMachineFormats asserts a collected Result renders as the locked
// JSON and CSV bytes, that the JSON parses and round-trips to an equal
// Result, and that the CSV parses.
func checkMachineFormats(t *testing.T, r *Result, sums *machineSums) {
	t.Helper()
	var jb bytes.Buffer
	if err := RenderJSON(r, &jb); err != nil {
		t.Fatalf("%s: RenderJSON: %v", r.ID, err)
	}
	sums.check(t, r.ID+".json", jb.Bytes())
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
	sums.check(t, r.ID+".csv", cb.Bytes())
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
