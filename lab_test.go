package mptcpsim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mptcpsim/internal/sim"
)

// quickCfg is a fast-but-real configuration for cancellation tests: many
// short simulation jobs.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Warmup = 200 * sim.Millisecond
	cfg.DCDuration = 500 * sim.Millisecond
	cfg.DCWarmup = 100 * sim.Millisecond
	cfg.Seeds = 3
	return cfg
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline, failing on a leak.
func waitGoroutines(t *testing.T, baseline int) {
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

// TestLabRunAllCancelMidFlight pins the cancellation contract: cancelling
// mid-RunAll stops the run at the next job boundary, returns an error
// matching both ErrCanceled and context.Canceled, and leaks no goroutines.
func TestLabRunAllCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var jobsDone, jobsTotal atomic.Int64
	lab := NewLab(WithConfig(quickCfg()), WithWorkers(2), WithProgress(func(ev ProgressEvent) {
		if ev.Kind == ProgressJobs {
			jobsDone.Store(int64(ev.Done))
			jobsTotal.Store(int64(ev.Total))
			if ev.Done >= 1 {
				cancel() // cancel as soon as the first job completes
			}
		}
	}))
	var buf bytes.Buffer
	err := lab.RunAll(ctx, []string{"fig1b", "fig1c", "fig9"}, FormatText, &buf)
	if err == nil {
		t.Fatal("cancelled RunAll returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled in chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	var apiError *Error
	if !errors.As(err, &apiError) || apiError.Op != "run-all" {
		t.Fatalf("err = %#v, want *Error with Op run-all", err)
	}
	// Within one job boundary: with 2 workers, at most the jobs already
	// in flight at cancellation finish — nowhere near the full sweep.
	if done, total := jobsDone.Load(), jobsTotal.Load(); total > 0 && done >= total {
		t.Fatalf("all %d jobs ran despite cancellation after the first", total)
	}
	waitGoroutines(t, before)
}

// TestDatacenterCancels: the fat-tree experiments run through Net.Run like
// every other, so a cancellation reaches inside a running job and stops it
// at its next one-second virtual-time boundary. The horizon here is an hour
// of simulated data-center traffic per job — hours of wall time if a job,
// once started, ran to its end.
func TestDatacenterCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	before := runtime.NumGoroutine()
	cfg := quickCfg()
	cfg.DCDuration = 3600 * sim.Second
	cfg.Seeds = 1
	lab := NewLab(WithConfig(cfg), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := lab.Collect(ctx, "table3")
		done <- err
	}()
	// No job can finish, so there is no event to cancel on: give the three
	// jobs time to be well inside their simulations.
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("table3 still running a minute after cancellation: its fat-tree jobs do not observe the context")
	}
	waitGoroutines(t, before)
}

// TestLabFuzzCancelMidFlight is the same contract for Lab.Fuzz.
func TestLabFuzzCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	lab := NewLab(WithWorkers(2), WithProgress(func(ev ProgressEvent) {
		if ev.Kind == ProgressJobs {
			done.Store(int64(ev.Done))
			if ev.Done >= 1 {
				cancel()
			}
		}
	}))
	_, err := lab.Fuzz(ctx, FuzzOptions{N: 100, Seed: 7})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if n := done.Load(); n >= 100 {
		t.Fatalf("all %d scenarios ran despite cancellation after the first", n)
	}
	waitGoroutines(t, before)
}

// TestLabPreCancelled checks every context-aware method rejects an
// already-cancelled context without doing work.
func TestLabPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lab := NewLab(WithConfig(quickCfg()))
	if _, err := lab.Collect(ctx, "fig1b"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Collect: %v", err)
	}
	if err := lab.RunAll(ctx, nil, FormatText, &bytes.Buffer{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunAll: %v", err)
	}
	if _, err := lab.Run(ctx, validSpec()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run: %v", err)
	}
	if _, err := lab.Fuzz(ctx, FuzzOptions{N: 3}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Fuzz: %v", err)
	}
	if _, err := lab.Conform(ctx, ConformanceOptions{DurationSec: 1}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Conform: %v", err)
	}
}

// TestFanOutRejectsInvalidSizes: a negative worker budget, fuzz campaign
// size or conformance window, or a conformance window that with its
// warm-up is longer than a scenario can hold, is ErrInvalidConfig before
// anything runs, never a silent default. The context is already cancelled,
// so a call that ran instead would fail with ErrCanceled.
func TestFanOutRejectsInvalidSizes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bad, ok := NewLab(WithWorkers(-1)), NewLab()
	errOf := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"campaign workers", errOf(bad.Campaign(ctx, tinyCampaign()))},
		{"fuzz workers", errOf(bad.Fuzz(ctx, FuzzOptions{N: 3}))},
		{"conform workers", errOf(bad.Conform(ctx, ConformanceOptions{DurationSec: 1}))},
		{"fuzz N", errOf(ok.Fuzz(ctx, FuzzOptions{N: -1}))},
		{"conform duration", errOf(ok.Conform(ctx, ConformanceOptions{DurationSec: -1}))},
		{"conform NaN duration", errOf(ok.Conform(ctx, ConformanceOptions{DurationSec: math.NaN()}))},
		{"conform long window", errOf(ok.Conform(ctx, ConformanceOptions{DurationSec: 2e6}))},
	} {
		if !errors.Is(tc.err, ErrInvalidConfig) {
			t.Errorf("%s: %v, want ErrInvalidConfig", tc.name, tc.err)
		}
	}
}

// TestLabFuzzSeedReplays: a fuzz campaign reports the seed it was given —
// 0 included — and its scenarios are exactly GenFuzzSpec(seed, i), so the
// replay entry rebuilds what ran: the campaign's event count is the sum of
// the replayed runs'.
func TestLabFuzzSeedReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	ctx := context.Background()
	lab := NewLab()
	for _, seed := range []int64{0, 3} {
		const n = 2
		rep, err := lab.Fuzz(ctx, FuzzOptions{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var events uint64
		for i := 0; i < n; i++ {
			run, err := lab.Run(ctx, GenFuzzSpec(seed, i))
			if err != nil {
				t.Fatal(err)
			}
			events += run.Processed
		}
		if rep.Seed != seed || rep.Events != events {
			t.Errorf("seed %d: campaign reports seed %d and %d events, replays give %d", seed, rep.Seed, rep.Events, events)
		}
	}
}

func validSpec() ScenarioSpec {
	return ScenarioSpec{
		Name: "t", Seed: 1, WarmupSec: 0.2, DurationSec: 1,
		Links: []ScenarioLink{{RateMbps: 2}},
		Paths: []ScenarioPath{{Links: []int{0}, DelayMs: 10}},
		Flows: []ScenarioFlow{{Algorithm: "olia", Paths: []int{0}}},
	}
}

// TestLabCompletedThenCancelled: cancelling after a run completed must not
// have affected its output.
func TestLabCompletedThenCancelled(t *testing.T) {
	cfg := quickCfg()
	cfg.Seeds = 1
	ids := []string{"fig1b"}
	var plain bytes.Buffer
	if err := NewLab(WithConfig(cfg)).RunAll(context.Background(), ids, FormatText, &plain); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var late bytes.Buffer
	err := NewLab(WithConfig(cfg)).RunAll(ctx, ids, FormatText, &late)
	cancel() // after completion
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != late.String() {
		t.Fatal("output differs between plain and completed-then-cancelled runs")
	}
}

// TestTypedErrors pins the errors.Is/As-matchable family at the boundary.
func TestTypedErrors(t *testing.T) {
	ctx := context.Background()
	lab := NewLab()

	_, err := lab.Collect(ctx, "nope")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("Collect unknown: %v", err)
	}
	var apiError *Error
	if !errors.As(err, &apiError) || apiError.ID != "nope" || apiError.Op != "collect" {
		t.Fatalf("Collect unknown: %#v", err)
	}
	if err := lab.RunAll(ctx, []string{"nope"}, FormatText, &bytes.Buffer{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("RunAll unknown: %v", err)
	}
	if err := lab.RunAll(ctx, nil, Format("bogus"), &bytes.Buffer{}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("RunAll bad format: %v", err)
	}
	bad := DefaultConfig()
	bad.Workers = -1
	if _, err := NewLab(WithConfig(bad)).Collect(ctx, "fig1b"); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Collect bad config: %v", err)
	}
	if _, err := lab.Run(ctx, ScenarioSpec{DurationSec: 1}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("Run bad spec: %v", err)
	}
	if _, err := lab.Analyze([]float64{0.1}, []float64{0.1, 0.2}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("Analyze bad input: %v", err)
	}
}

// TestAnalyzeRejectsOutOfRange puts each value into either slice of an
// otherwise valid two-path input: a loss must lie in (0, 1] and an RTT must
// be positive and finite, or Analyze returns ErrInvalidSpec.
func TestAnalyzeRejectsOutOfRange(t *testing.T) {
	lab := NewLab()
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.01, 1.5}
	for _, v := range bad {
		for path := 0; path < 2; path++ {
			loss, rtts := []float64{0.01, 0.02}, []float64{0.1, 0.15}
			loss[path] = v
			if a, err := lab.Analyze(loss, rtts); !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("loss %v: got %+v, %v; want ErrInvalidSpec", loss, a, err)
			}
			loss, rtts = []float64{0.01, 0.02}, []float64{0.1, 0.15}
			rtts[path] = v
			_, err := lab.Analyze(loss, rtts)
			if v == 1.5 { // a 1.5 s RTT is slow but valid
				if err != nil {
					t.Errorf("rtt %v: %v", rtts, err)
				}
			} else if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("rtt %v: got %v, want ErrInvalidSpec", rtts, err)
			}
		}
	}
	if _, err := lab.Analyze([]float64{1, 0.02}, []float64{0.1, 0.15}); err != nil {
		t.Fatalf("loss 1 is a valid probability: %v", err)
	}
}

// TestLabProgressEvents pins the progress stream's shape for a collection:
// a start event, monotone job counters reaching done == total, and a
// finished event.
func TestLabProgressEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	cfg := quickCfg()
	cfg.Seeds = 1
	var events []ProgressEvent
	lab := NewLab(WithConfig(cfg), WithProgress(func(ev ProgressEvent) {
		events = append(events, ev) // serialized by the Lab
	}))
	if _, err := lab.Collect(context.Background(), "fig1b"); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Kind != ProgressExperimentStarted || events[0].Experiment != "fig1b" {
		t.Fatalf("first event %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != ProgressExperimentFinished || last.Err != nil {
		t.Fatalf("last event %+v", last)
	}
	prevDone := -1
	var finalDone, finalTotal int
	for _, ev := range events {
		if ev.Kind != ProgressJobs {
			continue
		}
		if ev.Done < prevDone {
			t.Fatalf("job counter went backwards: %d after %d", ev.Done, prevDone)
		}
		if ev.Done > ev.Total {
			t.Fatalf("done %d exceeds total %d", ev.Done, ev.Total)
		}
		prevDone = ev.Done
		finalDone, finalTotal = ev.Done, ev.Total
	}
	if finalTotal == 0 || finalDone != finalTotal {
		t.Fatalf("jobs ended at %d/%d", finalDone, finalTotal)
	}
}
