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
		register(&Experiment{
			ID: "zz-stream-a", PaperRef: "test", Title: "streaming probe a",
			// One job, so that a settles inside the stream, next to b's job.
			Plan: func(Config) Plan {
				return perPoint([]int{0}, func(context.Context, int) int { return 0 }, func([]int) (*Result, error) {
					return &Result{Preamble: []string{"a-output"}}, nil
				})
			},
		})
		register(&Experiment{
			ID: "zz-stream-b", PaperRef: "test", Title: "streaming probe b",
			Plan: func(Config) Plan {
				return perPoint([]int{0}, func(context.Context, int) bool {
					select {
					case <-streamTestGate:
						return true
					case <-time.After(30 * time.Second):
						return false
					}
				}, func(flushed []bool) (*Result, error) {
					if !flushed[0] {
						return nil, fmt.Errorf("zz-stream-a output never flushed while zz-stream-b ran")
					}
					return &Result{Preamble: []string{"b-output"}}, nil
				})
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

// collectSweep runs a sweep through the package's one fan-out, as the plan
// of a throw-away experiment, and returns what its fold was handed.
func collectSweep[P, T any](t *testing.T, cfg Config, points []P, job func(ctx context.Context, p P, seed int64) T) [][]T {
	t.Helper()
	var per [][]T
	e := &Experiment{ID: "zz-sweep", Plan: func(cfg Config) Plan {
		return sweep(cfg, points, job, func(got [][]T) (*Result, error) {
			per = got
			return &Result{}, nil
		})
	}}
	if _, err := e.CollectResult(context.Background(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	return per
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
		return collectSweep(t, cfg, points, func(ctx context.Context, p acPoint, seed int64) acMetrics {
			return runScenarioAC(ctx, scenario.PaperScenarioA, p, seed, cfg)
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
	seedOf := func(_ context.Context, _ string, seed int64) int64 { return seed }
	got := collectSweep(t, cfg, []string{"p0", "p1"}, seedOf)
	for pi := range got {
		for s, seed := range got[pi] {
			if want := int64(100 + s); seed != want {
				t.Errorf("point %d repetition %d saw seed %d, want %d", pi, s, seed, want)
			}
		}
	}
	// Seeds < 1 still runs one repetition at the base seed.
	cfg.Seeds = 0
	got = collectSweep(t, cfg, []string{"p0"}, seedOf)
	if len(got[0]) != 1 || got[0][0] != 100 {
		t.Errorf("Seeds=0 sweep = %v, want one run at seed 100", got)
	}
}
