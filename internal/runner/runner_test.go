package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
	if got := New(5).Size(); got != 5 {
		t.Fatalf("New(5).Size() = %d, want 5", got)
	}
	if !New(1).Sequential() || New(2).Sequential() {
		t.Fatal("Sequential() wrong for sizes 1 and 2")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		got := mapNoCtx(p, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(4)
	if got := mapNoCtx(p, 0, func(i int) int { t.Fatal("fn called for n=0"); return 0 }); len(got) != 0 {
		t.Fatalf("n=0 returned %d results", len(got))
	}
	if got := mapNoCtx(p, 1, func(i int) string { return "only" }); got[0] != "only" {
		t.Fatalf("n=1 result %q", got[0])
	}
}

// trackPeak records the high-water mark of concurrently running jobs.
type trackPeak struct {
	cur, peak atomic.Int64
}

func (tp *trackPeak) enter() {
	n := tp.cur.Add(1)
	for {
		old := tp.peak.Load()
		if n <= old || tp.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (tp *trackPeak) exit() { tp.cur.Add(-1) }

func spin() {
	for j := 0; j < 1000; j++ {
		runtime.Gosched()
	}
}

// TestMapBoundsConcurrency checks the pool's guarantee: a single Map never
// runs more than Size jobs at once.
func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var tp trackPeak
	mapNoCtx(p, 50, func(i int) struct{} {
		tp.enter()
		spin() // busy the slot long enough for other goroutines to pile up
		tp.exit()
		return struct{}{}
	})
	if got := tp.peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", got, workers)
	}
}

// TestConcurrentMapsShareBound checks several callers sharing one Pool:
// goroutines that each Map over it, and the bound holds across all of them
// combined.
func TestConcurrentMapsShareBound(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := New(workers)
		var tp trackPeak
		var wg sync.WaitGroup
		results := make([][]int, 6)
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = mapNoCtx(p, 8, func(i int) int {
					tp.enter()
					spin()
					tp.exit()
					return g*100 + i
				})
			}(g)
		}
		wg.Wait()
		if got := tp.peak.Load(); got > int64(workers) {
			t.Fatalf("workers=%d: observed %d concurrent jobs across sibling Maps", workers, got)
		}
		for g := range results {
			for i, v := range results[g] {
				if v != g*100+i {
					t.Fatalf("workers=%d: goroutine %d result[%d] = %d", workers, g, i, v)
				}
			}
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts is the package-level determinism
// property: seed-style derivation from the index gives identical results
// for any pool size.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []string {
		return mapNoCtx(New(workers), 64, func(i int) string {
			// Stand-in for "simulate with seed base+i".
			h := uint64(i)*2654435761 + 12345
			return fmt.Sprintf("job%d:%x", i, h)
		})
	}
	ref := run(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestMapParallelWrites hammers the result slice from many goroutines so
// `go test -race ./internal/runner` exercises the synchronization.
func TestMapParallelWrites(t *testing.T) {
	p := New(8)
	var mu sync.Mutex
	seen := map[int]bool{}
	mapNoCtx(p, 200, func(i int) struct{} {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return struct{}{}
	})
	if len(seen) != 200 {
		t.Fatalf("ran %d distinct jobs, want 200", len(seen))
	}
}

// mapNoCtx runs Map under a background context — the historical
// context-free contract, which never errors.
func mapNoCtx[T any](p *Pool, n int, fn func(i int) T) []T {
	out, err := Map(context.Background(), p, n, fn)
	if err != nil {
		panic(err)
	}
	return out
}

// TestMapCancellation checks the prompt-cancellation contract: cancelling
// mid-Map stops unstarted jobs, joins in-flight ones, returns ctx.Err(),
// and leaks no goroutines.
func TestMapCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := New(workers)
		var started atomic.Int64
		before := runtime.NumGoroutine()
		out, err := Map(ctx, p, 100, func(i int) int {
			if started.Add(1) == 1 {
				cancel()
			}
			spin()
			return i + 1
		})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: result slice length %d", workers, len(out))
		}
		if n := started.Load(); n > int64(workers)+1 {
			t.Fatalf("workers=%d: %d jobs started after cancellation", workers, n)
		}
		waitGoroutines(t, before)
		cancel()
	}
}

// TestMapPreCancelled checks that an already-cancelled context runs no jobs.
func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		out, err := Map(ctx, New(workers), 50, func(i int) int {
			t.Error("job ran under a cancelled context")
			return i
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for i, v := range out {
			if v != 0 {
				t.Fatalf("workers=%d: result[%d] = %d, want zero value", workers, i, v)
			}
		}
		waitGoroutines(t, before)
	}
}

// waitGoroutines polls until the goroutine count returns to the baseline
// (modulo unrelated runtime churn), failing the test on a leak.
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
