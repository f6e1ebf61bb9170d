package harness

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// parallelConfig is small enough to run an experiment in well under a
// second but uses several seeds so the (point × seed) fan-out and the
// seed-order merge are both exercised.
func parallelConfig(workers int) Config {
	return Config{
		Duration:   4 * sim.Second,
		Warmup:     sim.Second,
		DCDuration: 500 * sim.Millisecond,
		DCWarmup:   125 * sim.Millisecond,
		Seeds:      2,
		BaseSeed:   7,
		FatTreeK:   4,
		Subflows:   []int{2},
		Workers:    workers,
	}
}

// workerVariants are the pool sizes the determinism property quantifies
// over: sequential, a fixed parallel setting, and whatever this host has.
var workerVariants = []int{1, 4, runtime.GOMAXPROCS(0)}

// determinismIDs spans every experiment family: Scenario A sweep, Scenario
// B table, window traces, FatTree long flows, short flows, an unseeded
// ablation, and a seed-swept extension.
var determinismIDs = []string{
	"fig1b", "table1", "fig7", "fig13a", "table3", "ablation-epsilon", "ext-rwnd",
}

// TestWorkerCountByteIdentical is the headline property of the parallel
// runner: for every experiment family, output with Workers=1 (the
// sequential reference), Workers=4 and Workers=GOMAXPROCS is byte-for-byte
// identical.
func TestWorkerCountByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	for _, id := range determinismIDs {
		var ref string
		for vi, workers := range workerVariants {
			got := runText(t, id, parallelConfig(workers))
			if vi == 0 {
				ref = got
				if ref == "" {
					t.Fatalf("%s produced no output", id)
				}
				continue
			}
			if got != ref {
				t.Errorf("%s: Workers=%d output differs from sequential\n--- Workers=1 ---\n%s--- Workers=%d ---\n%s",
					id, workers, ref, workers, got)
			}
		}
	}
}

// TestRunAllByteIdentical extends the property to the registry runner:
// concurrent experiments sharing one pool must write exactly what a
// sequential run writes, in listing order.
func TestRunAllByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	ids := []string{"fig1b", "table1", "fig7", "ablation-epsilon"}
	var ref string
	for vi, workers := range workerVariants {
		var b strings.Builder
		if err := RunAll(context.Background(), parallelConfig(workers), ids, FormatText, &b, nil); err != nil {
			t.Fatalf("RunAll (Workers=%d): %v", workers, err)
		}
		if vi == 0 {
			ref = b.String()
			// Banners must appear in request order.
			last := -1
			for _, id := range ids {
				pos := strings.Index(ref, "===== "+id+" =====")
				if pos < 0 {
					t.Fatalf("RunAll output missing banner for %s", id)
				}
				if pos < last {
					t.Fatalf("RunAll banner for %s out of order", id)
				}
				last = pos
			}
			continue
		}
		if b.String() != ref {
			t.Errorf("RunAll: Workers=%d output differs from sequential", workers)
		}
	}
}

// TestRunAllStreamsProgressively pins the streaming behavior: an earlier
// experiment's output must reach the writer while a later experiment is
// still running, not after the whole registry finishes. The second
// experiment's job blocks until the first one's bytes have been flushed; if
// RunAll buffered everything to the end this would deadlock (the test
// fails by timeout instead).
func TestRunAllStreamsProgressively(t *testing.T) {
	streamTestGate = make(chan struct{})
	if Get("zz-stream-a") == nil {
		// One job, so that a settles inside the stream, next to b's job.
		registerTable("zz-stream-a", "test", "streaming probe a", &table{
			preamble: []string{"a-output"},
			rows: []row{{run: func(_ Config, _ int64, _ *[]float64) Job {
				return Job{Spec: shortSpec(1), Read: func(*scenario.Net, *scenario.RunReport) {}}
			}}},
		})
		// A Build job, so that b's reading does not share a's run.
		registerTable("zz-stream-b", "test", "streaming probe b", &table{
			preamble: []string{"b-output"},
			rows: []row{{run: func(_ Config, _ int64, flushed *[]float64) Job {
				return Job{Build: func() *scenario.Net { return compile(shortSpec(1)) }, Read: func(*scenario.Net, *scenario.RunReport) {
					select {
					case <-streamTestGate:
						*flushed = []float64{1}
					case <-time.After(30 * time.Second):
					}
				}}
			}}},
			finish: func(_ Config, _ *Result, runs [][][]float64) error {
				if runs[0][0] == nil {
					return fmt.Errorf("zz-stream-a output never flushed while zz-stream-b ran")
				}
				return nil
			},
		})
	}
	fw := &flushWatcher{signal: streamTestGate, want: "a-output"}
	if err := RunAll(context.Background(), parallelConfig(4), []string{"zz-stream-a", "zz-stream-b"}, FormatText, fw, nil); err != nil {
		t.Fatal(err)
	}
	got := fw.buf.String()
	if !strings.Contains(got, "a-output") || !strings.Contains(got, "b-output") {
		t.Fatalf("missing experiment output:\n%s", got)
	}
	if strings.Index(got, "a-output") > strings.Index(got, "b-output") {
		t.Fatalf("outputs flushed out of listing order:\n%s", got)
	}
}

// streamTestGate blocks zz-stream-b until zz-stream-a's output is flushed;
// reset by TestRunAllStreamsProgressively on each run.
var streamTestGate chan struct{}

// flushWatcher closes signal once want has appeared in the written bytes.
type flushWatcher struct {
	buf    strings.Builder
	signal chan struct{}
	want   string
	closed bool
}

func (fw *flushWatcher) Write(p []byte) (int, error) {
	fw.buf.Write(p)
	if !fw.closed && strings.Contains(fw.buf.String(), fw.want) {
		fw.closed = true
		close(fw.signal)
	}
	return len(p), nil
}

func TestRunAllUnknownID(t *testing.T) {
	var b strings.Builder
	err := RunAll(context.Background(), parallelConfig(1), []string{"fig1b", "nope"}, FormatText, &b, nil)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("RunAll with unknown id: err = %v", err)
	}
}

// shortSpec is a 1 s run of the two-link rig: a network cheap enough for a
// test of collect itself.
func shortSpec(seed int64) *scenario.Spec {
	return scenario.PaperTwoLink(10, 1, 1, "olia", seed, 0, 1)
}

// collectRuns collects a throw-away table through the package's one
// fan-out and returns every row's readings, in seed order.
func collectRuns(t *testing.T, cfg Config, tab *table) [][][]float64 {
	t.Helper()
	var runs [][][]float64
	tab.finish = func(_ Config, _ *Result, got [][][]float64) error {
		runs = got
		return nil
	}
	e := &Experiment{ID: "zz-runs", Plan: tab.plan}
	if _, err := e.CollectResult(context.Background(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestPerSeedResultsIndependentOfWorkers pins the stronger property behind
// the byte-identity: the raw per-seed readings themselves (not just their
// formatted averages) do not depend on the worker count, because each job's
// seed derives from BaseSeed and its row and repetition alone.
func TestPerSeedResultsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	collect := func(workers int) [][][]float64 {
		cfg := parallelConfig(workers)
		cfg.Seeds = 3
		return collectRuns(t, cfg, &table{seeded: true, rows: []row{
			{run: runScenarioAC(scenario.PaperScenarioA, 1.0, 10, "lia")},
			{run: runScenarioAC(scenario.PaperScenarioA, 1.5, 20, "olia")},
		}})
	}
	ref := collect(1)
	for _, workers := range workerVariants[1:] {
		got := collect(workers)
		for ri := range ref {
			for si := range ref[ri] {
				if !reflect.DeepEqual(got[ri][si], ref[ri][si]) {
					t.Errorf("Workers=%d: row %d seed %d readings %v != sequential %v",
						workers, ri, si, got[ri][si], ref[ri][si])
				}
			}
		}
	}
}

// TestSweepSeedDerivation pins the seed chain: repetition s of any row of
// a seeded table runs a network seeded cfg.BaseSeed + s, matching the
// sequential harness the experiments replaced, and an unseeded table runs
// each row once, at cfg.BaseSeed.
func TestSweepSeedDerivation(t *testing.T) {
	cfg := parallelConfig(4)
	cfg.Seeds = 3
	cfg.BaseSeed = 100
	seedOf := func(_ Config, seed int64, out *[]float64) Job {
		return Job{Spec: shortSpec(seed), Read: func(n *scenario.Net, _ *scenario.RunReport) { *out = []float64{float64(n.Seed)} }}
	}
	got := collectRuns(t, cfg, &table{seeded: true, rows: []row{{run: seedOf}, {run: seedOf}}})
	for ri := range got {
		if len(got[ri]) != 3 {
			t.Fatalf("row %d ran %d repetitions, want 3", ri, len(got[ri]))
		}
		for s, o := range got[ri] {
			if want := float64(100 + s); o[0] != want {
				t.Errorf("row %d repetition %d saw seed %v, want %v", ri, s, o[0], want)
			}
		}
	}
	// An unseeded table runs one repetition at the base seed.
	got = collectRuns(t, cfg, &table{rows: []row{{run: seedOf}}})
	if len(got[0]) != 1 || got[0][0][0] != 100 {
		t.Errorf("unseeded table = %v, want one run at seed 100", got)
	}
	// Seeds < 1 still runs one repetition at the base seed.
	cfg.Seeds = 0
	got = collectRuns(t, cfg, &table{seeded: true, rows: []row{{run: seedOf}}})
	if len(got[0]) != 1 || got[0][0][0] != 100 {
		t.Errorf("Seeds=0 table = %v, want one run at seed 100", got)
	}
}
