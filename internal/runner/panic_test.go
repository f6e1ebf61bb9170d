package runner

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestMapPanicRecovered: a crashing job must not kill the process — Map
// recovers it into a *PanicError wrapping ErrJobPanic, runs every other job
// to completion, releases the crashed job's pool slot, and leaks nothing.
func TestMapPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		before := runtime.NumGoroutine()
		out, err := Map(context.Background(), p, 20, func(i int) int {
			if i == 7 {
				panic("boom")
			}
			return i + 1
		})
		if !errors.Is(err, ErrJobPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrJobPanic", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %T does not unwrap to *PanicError", workers, err)
		}
		if pe.Job != 7 || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError{Job: %d, Value: %v}, want job 7 value boom", workers, pe.Job, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panic") {
			t.Fatalf("workers=%d: stack missing the panic site:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "job 7 panicked: boom") {
			t.Fatalf("workers=%d: Error() = %q", workers, err)
		}
		for i, v := range out {
			want := i + 1
			if i == 7 {
				want = 0 // the crashed slot holds its zero value
			}
			if v != want {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, want)
			}
		}
		if n := len(p.sem); n != 0 {
			t.Fatalf("workers=%d: %d pool slots still held after the panic", workers, n)
		}
		waitGoroutines(t, before)
		// The pool must be fully reusable after the crash.
		if got := mapNoCtx(p, 5, func(i int) int { return i }); got[4] != 4 {
			t.Fatalf("workers=%d: pool unusable after panic: %v", workers, got)
		}
	}
}

// TestMapPanicLowestIndex: with several crashing jobs the reported error is
// the lowest-index one, independent of scheduling, so a crash report is as
// deterministic as the results.
func TestMapPanicLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), New(workers), 40, func(i int) int {
			if i == 3 || i == 11 || i == 31 {
				panic(i)
			}
			spin()
			return i
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Job != 3 || pe.Value != 3 {
			t.Fatalf("workers=%d: reported job %d (value %v), want lowest index 3", workers, pe.Job, pe.Value)
		}
	}
}

// TestMapPanicInNestedFanOut is the shape of several callers sharing one
// Pool: goroutines that each Map over it. Job 0 of one inner Map panics;
// that Map alone reports the crash while its siblings complete normally,
// and the shared pool ends with every slot free.
func TestMapPanicInNestedFanOut(t *testing.T) {
	p := New(3)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make([]error, 5)
	results := make([][]int, 5)
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = Map(context.Background(), p, 10, func(i int) int {
				if g == 2 && i == 0 {
					panic("inner fan-out crash")
				}
				spin()
				return g*100 + i
			})
		}(g)
	}
	wg.Wait()
	for g := range errs {
		if g == 2 {
			var pe *PanicError
			if !errors.As(errs[2], &pe) || pe.Job != 0 {
				t.Fatalf("crashed sweep err = %v, want *PanicError for job 0", errs[2])
			}
			continue
		}
		if errs[g] != nil {
			t.Fatalf("sibling sweep %d failed: %v", g, errs[g])
		}
		for i, v := range results[g] {
			if v != g*100+i {
				t.Fatalf("sibling sweep %d result[%d] = %d", g, i, v)
			}
		}
	}
	if n := len(p.sem); n != 0 {
		t.Fatalf("%d pool slots still held after nested crash", n)
	}
	waitGoroutines(t, before)
}

// TestMapPanicPreCancelled: a pre-cancelled context still runs no jobs, so
// no panic can fire and the error stays context.Canceled.
func TestMapPanicPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, New(workers), 10, func(i int) int { panic("must not run") })
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrJobPanic) {
			t.Fatalf("workers=%d: err = %v, want bare context.Canceled", workers, err)
		}
	}
}
