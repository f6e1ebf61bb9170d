package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
)

// registerPanicProbe installs the zz-panic test experiment: a seeded table
// of networks of their own, whose row 2 panics reading its run while the
// others run and read normally.
func registerPanicProbe() {
	if Get("zz-panic") != nil {
		return
	}
	probe := &table{seeded: true, finish: func(_ Config, r *Result, _ [][][]float64) error {
		return fmt.Errorf("panic probe: folded %d rows although a job crashed", len(r.Rows))
	}}
	for p := 0; p < 4; p++ {
		probe.rows = append(probe.rows, row{run: func(_ Config, seed int64, out *[]float64) Job {
			return Job{Spec: shortSpec(seed + 100*int64(p)), Read: func(*scenario.RunReport) {
				if p == 2 {
					panic("simulated job crash")
				}
				*out = []float64{float64(p)}
			}}
		}})
	}
	registerTable("zz-panic", "test", "crashing table probe", probe)
}

// TestCollectResultRecoversJobPanic: a panicking simulation job must not
// kill the process; the experiment's collection fails with the typed
// *runner.PanicError (wrapping runner.ErrJobPanic) carrying the crash
// stack, at any worker count.
func TestCollectResultRecoversJobPanic(t *testing.T) {
	registerPanicProbe()
	for _, workers := range []int{1, 4} {
		_, err := Get("zz-panic").CollectResult(context.Background(), parallelConfig(workers), nil)
		if !errors.Is(err, runner.ErrJobPanic) {
			t.Fatalf("Workers=%d: err = %v, want runner.ErrJobPanic", workers, err)
		}
		var pe *runner.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Workers=%d: err %T does not unwrap to *runner.PanicError", workers, err)
		}
		if pe.Value != "simulated job crash" {
			t.Fatalf("Workers=%d: panic value %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panic") {
			t.Fatalf("Workers=%d: stack missing the panic site:\n%s", workers, pe.Stack)
		}
	}
}

// TestRunAllIsolatesPanickingExperiment: a deliberately crashing job in one
// experiment of a RunAll must surface as that experiment's typed error
// while sibling experiments sharing the worker pool complete and render
// normally, with no goroutine leak.
func TestRunAllIsolatesPanickingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	registerPanicProbe()
	before := runtime.NumGoroutine()
	var b strings.Builder
	err := RunAll(context.Background(), parallelConfig(4), []string{"fig4a", "zz-panic"}, FormatText, &b, nil)
	if !errors.Is(err, runner.ErrJobPanic) {
		t.Fatalf("RunAll err = %v, want runner.ErrJobPanic", err)
	}
	if !strings.Contains(err.Error(), "harness: zz-panic") {
		t.Fatalf("error not attributed to the crashing experiment: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "===== fig4a =====") {
		t.Fatalf("sibling experiment output missing:\n%s", out)
	}
	// The sibling rendered a real table, not just its banner.
	if fig := out[strings.Index(out, "===== fig4a ====="):]; strings.Count(fig, "\n") < 3 {
		t.Fatalf("sibling experiment rendered no table:\n%s", out)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline, failing the test on a leak (the runner package's idiom).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), baseline)
}

// TestCollectPanicsOnInvalidSpec: a registry spec that does not validate
// is a harness bug. The job panics naming the spec, and the collection
// fails with the *runner.PanicError; nothing is read.
func TestCollectPanicsOnInvalidSpec(t *testing.T) {
	read := false
	tab := &table{rows: []row{{run: func(Config, int64, *[]float64) Job {
		sp := shortSpec(1)
		sp.DurationSec = 0
		return Job{Spec: sp, Read: func(*scenario.RunReport) { read = true }}
	}}}}
	e := &Experiment{ID: "zz-invalid", Plan: tab.plan}
	_, err := e.CollectResult(context.Background(), parallelConfig(1), nil)
	var pe *runner.PanicError
	if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "spec invalid") || !strings.Contains(fmt.Sprint(pe.Value), "duration must be positive") {
		t.Fatalf("err = %v, want a job panic naming the invalid spec", err)
	}
	if read {
		t.Fatal("the job of an invalid spec was read")
	}
}
