package harness

import (
	"context"
	"fmt"
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
// B table, window traces, FatTree long flows, short flows, a perPoint
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
			var b strings.Builder
			if err := Get(id).Run(context.Background(), parallelConfig(workers), &b); err != nil {
				t.Fatalf("%s (Workers=%d): %v", id, workers, err)
			}
			if vi == 0 {
				ref = b.String()
				if ref == "" {
					t.Fatalf("%s produced no output", id)
				}
				continue
			}
			if b.String() != ref {
				t.Errorf("%s: Workers=%d output differs from sequential\n--- Workers=1 ---\n%s--- Workers=%d ---\n%s",
					id, workers, ref, workers, b.String())
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
		if err := RunAll(context.Background(), parallelConfig(workers), ids, FormatText, &b); err != nil {
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
// experiment blocks until the first one's bytes have been flushed; if
// RunAll buffered everything to the end this would deadlock (the test
// fails by timeout instead).
func TestRunAllStreamsProgressively(t *testing.T) {
	streamTestGate = make(chan struct{})
	if Get("zz-stream-a") == nil {
		register(&Experiment{
			ID: "zz-stream-a", PaperRef: "test", Title: "streaming probe a",
			Collect: func(cfg Config) (*Result, error) {
				return &Result{Preamble: []string{"a-output"}}, nil
			},
		})
		register(&Experiment{
			ID: "zz-stream-b", PaperRef: "test", Title: "streaming probe b",
			Collect: func(cfg Config) (*Result, error) {
				select {
				case <-streamTestGate:
				case <-time.After(30 * time.Second):
					return nil, fmt.Errorf("zz-stream-a output never flushed while zz-stream-b ran")
				}
				return &Result{Preamble: []string{"b-output"}}, nil
			},
		})
	}
	fw := &flushWatcher{signal: streamTestGate, want: "a-output"}
	if err := RunAll(context.Background(), parallelConfig(4), []string{"zz-stream-a", "zz-stream-b"}, FormatText, fw); err != nil {
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
	err := RunAll(context.Background(), parallelConfig(1), []string{"fig1b", "nope"}, FormatText, &b)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("RunAll with unknown id: err = %v", err)
	}
}

// TestPerSeedResultsIndependentOfWorkers pins the stronger property behind
// the byte-identity: the raw per-seed metrics themselves (not just their
// formatted averages) do not depend on the worker count, because each job's
// seed derives from BaseSeed and sweep position alone.
func TestPerSeedResultsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	collect := func(workers int) [][]acMetrics {
		cfg := parallelConfig(workers)
		cfg.Seeds = 3
		points := []acPoint{
			{c1: 1.0, n1: 10, algo: "lia"},
			{c1: 1.5, n1: 20, algo: "olia"},
		}
		return sweep(cfg, points, func(p acPoint, seed int64) acMetrics {
			return runScenarioAC(scenario.PaperScenarioA, p, seed, cfg)
		})
	}
	ref := collect(1)
	for _, workers := range workerVariants[1:] {
		got := collect(workers)
		for pi := range ref {
			for si := range ref[pi] {
				if got[pi][si] != ref[pi][si] {
					t.Errorf("Workers=%d: point %d seed %d metrics %+v != sequential %+v",
						workers, pi, si, got[pi][si], ref[pi][si])
				}
			}
		}
	}
}

// TestSweepSeedDerivation pins the seed chain: repetition s of any point
// sees cfg.BaseSeed + s, matching the sequential harness the experiments
// replaced.
func TestSweepSeedDerivation(t *testing.T) {
	cfg := parallelConfig(4)
	cfg.Seeds = 3
	cfg.BaseSeed = 100
	got := sweep(cfg, []string{"p0", "p1"}, func(p string, seed int64) int64 { return seed })
	for pi := range got {
		for s, seed := range got[pi] {
			if want := int64(100 + s); seed != want {
				t.Errorf("point %d repetition %d saw seed %d, want %d", pi, s, seed, want)
			}
		}
	}
	// Seeds < 1 still runs one repetition at the base seed.
	cfg.Seeds = 0
	got = sweep(cfg, []string{"p0"}, func(p string, seed int64) int64 { return seed })
	if len(got[0]) != 1 || got[0][0] != 100 {
		t.Errorf("Seeds=0 sweep = %v, want one run at seed 100", got)
	}
}
