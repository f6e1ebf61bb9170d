package runner

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// streamLog is the interleaved record of one Stream: a job appends its
// index when it is claimed, the callback appends ^index when it is handed
// the result.
type streamLog struct {
	mu  sync.Mutex
	evs []int
}

func (l *streamLog) add(ev int) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *streamLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.evs)
}

// TestStreamWindowAndOrder parks job 0 and watches the other worker run the
// rest of the first window: exactly indices 1..w-1 are claimed and the
// callback has seen nothing, because index w is handed out only once result
// 0 has been. Releasing job 0 then delivers 0..n-1 in order, and all the
// way through no index i is claimed before result i-w was delivered.
func TestStreamWindowAndOrder(t *testing.T) {
	p := New(2)
	w := p.Window()
	n := 3*w + 5
	var log streamLog
	gate := make(chan struct{})
	claimed := make(chan int, n)  // sized to n sends: never blocks a job
	parked := make(chan []int, 1) // read after Stream returns
	go func() {
		// Job 0 reports in before it parks and the others as they finish,
		// so after w reports the first window is exhausted.
		for k := 0; k < w; k++ {
			<-claimed
		}
		parked <- log.snapshot()
		close(gate)
	}()
	err := Stream(context.Background(), p, n, func(i int) int {
		log.add(i)
		claimed <- i
		if i == 0 {
			<-gate
		}
		return i * i
	}, func(i, v int) {
		log.add(^i)
		if v != i*i {
			t.Errorf("result %d = %d, want %d", i, v, i*i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	atPark := <-parked
	slices.Sort(atPark)
	want := make([]int, w)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(atPark, want) {
		t.Fatalf("with job 0 parked the log holds %v, want claims 0..%d and no delivery", atPark, w-1)
	}

	next := 0
	delivered := make(map[int]bool)
	for _, ev := range log.snapshot() {
		if ev < 0 {
			if i := ^ev; i != next {
				t.Fatalf("delivered %d, want %d", i, next)
			}
			delivered[next] = true
			next++
		} else if ev >= w && !delivered[ev-w] {
			t.Fatalf("index %d claimed before result %d was delivered (window %d)", ev, ev-w, w)
		}
	}
	if next != n {
		t.Fatalf("delivered %d results, want %d", next, n)
	}
}

// TestStreamCancellation cancels mid-stream: the callback has seen a
// gap-free prefix, at most a window of jobs past the cancelling one
// started, Stream returns ctx.Err(), and every worker has exited.
func TestStreamCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := New(workers)
		const n, at = 2000, 50
		var started atomic.Int64
		var got []int
		before := runtime.NumGoroutine()
		err := Stream(ctx, p, n, func(i int) int {
			started.Add(1)
			if i == at {
				cancel()
			}
			return i
		}, func(i, v int) { got = append(got, v) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for k, v := range got {
			if v != k {
				t.Fatalf("workers=%d: delivery %d was result %d: not a gap-free prefix", workers, k, v)
			}
		}
		if len(got) >= n {
			t.Fatalf("workers=%d: all %d results delivered despite the cancellation", workers, n)
		}
		if s := started.Load(); s > at+1+int64(p.Window()) {
			t.Fatalf("workers=%d: %d jobs started, want at most %d", workers, s, at+1+p.Window())
		}
		waitGoroutines(t, before)
		if held := len(p.sem); held != 0 {
			t.Fatalf("workers=%d: %d pool slots still held", workers, held)
		}
	}
}

// TestMapGoroutinesScaleWithWorkers: a 10 000-job Map on a 3-slot pool
// never has more than 3 goroutines beyond the ones that were there before
// it; a goroutine per job would have had 10 000.
func TestMapGoroutinesScaleWithWorkers(t *testing.T) {
	const workers = 3
	p := New(workers)
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	mapNoCtx(p, 10_000, func(i int) struct{} {
		g := int64(runtime.NumGoroutine())
		for {
			old := peak.Load()
			if g <= old || peak.CompareAndSwap(old, g) {
				return struct{}{}
			}
		}
	})
	if extra := peak.Load() - int64(before); extra > workers {
		t.Fatalf("%d goroutines beyond the baseline during a %d-slot Map", extra, workers)
	}
}

// TestConcurrentStreamsShareBound is TestConcurrentMapsShareBound for the
// primitive: every stream has its own workers, and the pool still bounds
// the jobs running across all of them.
func TestConcurrentStreamsShareBound(t *testing.T) {
	const workers = 3
	p := New(workers)
	var tp trackPeak
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := 0
			err := Stream(context.Background(), p, 40, func(i int) int {
				tp.enter()
				spin()
				tp.exit()
				return g*100 + i
			}, func(i, v int) {
				if i != next || v != g*100+i {
					t.Errorf("stream %d: delivery %d carried index %d, result %d", g, next, i, v)
				}
				next++
			})
			if err != nil || next != 40 {
				t.Errorf("stream %d: %d deliveries, err %v", g, next, err)
			}
		}()
	}
	wg.Wait()
	if got := tp.peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs across two streams, pool bound is %d", got, workers)
	}
}

// TestStreamPanic: jobs k and a later one crash. The callback still sees
// every other index, in order, and the error is the lowest-index crash —
// on the inline path and the worker path alike.
func TestStreamPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		n := 2*New(4).Window() + 5
		k, later := n/3, n-2
		var got []int
		err := Stream(context.Background(), p, n, func(i int) int {
			if i == k || i == later {
				panic(i)
			}
			return i
		}, func(i, v int) { got = append(got, v) })
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Job != k || pe.Value != k {
			t.Fatalf("workers=%d: err = %v, want *PanicError for job %d", workers, err, k)
		}
		var want []int
		for i := 0; i < n; i++ {
			if i != k && i != later {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: delivered %v, want every index but %d and %d", workers, got, k, later)
		}
		if held := len(p.sem); held != 0 {
			t.Fatalf("workers=%d: %d pool slots still held", workers, held)
		}
	}
}
