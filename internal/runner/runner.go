// Package runner is the parallel experiment engine: a bounded worker pool
// that fans independent simulation jobs out across CPUs and hands their
// results back in submission order, so callers can merge them exactly as a
// sequential loop would have.
//
// Design constraints, in order:
//
//  1. Determinism. A job's inputs (notably its RNG seed) must never depend
//     on scheduling: callers derive every job from its index, and Stream
//     delivers results in index order on the calling goroutine, which is
//     where every caller folds them and counts progress. Byte-identical
//     output for any worker count falls out of that. (Map is the slotted
//     wrapper around Stream that the benchmark rigs and tests call.)
//  2. An exact, shareable bound. Every job blocks for a pool slot and holds
//     it only while running, so across all concurrent fan-outs on one Pool
//     at most Size jobs execute simultaneously — the bound a user sets with
//     -j is a guarantee, not a hint. The flip side: a job must not fan out
//     on the pool it runs on (it would hold its slot while waiting for more
//     slots — deadlock). No caller does: a layer with several fan-outs to
//     run (harness.RunAll and its experiments) deals all their jobs into
//     one Stream and sorts the deliveries out by index.
//  3. Cheap when sequential. A one-slot pool runs the whole fan-out inline
//     on the calling goroutine under a single acquire — no goroutines, and
//     jobs execute in index order: Workers=1 is the reference sequential
//     execution the parallel path is tested against.
//  4. Goroutines scale with workers, not jobs; results stream in index
//     order behind a bounded window. A fan-out starts min(n, Size) worker
//     goroutines that claim indices in order, and the calling goroutine
//     consumes result i while jobs after i are still running; no worker
//     claims an index windowPerWorker·Size or more past the consumer, so
//     the results resident at once are O(workers) however large n is, and
//     a slow job stalls the workers only once they have run a whole window
//     past it.
//  5. Prompt cancellation, bounded by one job. Cancelling the context
//     stops new jobs from starting: workers waiting for a pool slot give
//     the slot up, acquired slots re-check the context before running, and
//     no further index is handed out. Jobs already executing are never
//     interrupted (a simulation does not poll the context), so a fan-out
//     returns within one job boundary of the cancellation, with every
//     worker goroutine joined — no leaks.
//
// A worker yields the processor at every job boundary, as the exiting
// goroutine of a goroutine-per-job design did. Simulation jobs never
// block, so without the yield Size workers on Size processors hold
// them until the runtime's 10 ms forced preemption, and whatever else
// the process runs — serve's NDJSON event streams, the HTTP client
// waiting on them — queues behind that: the serve_jobs benchmark
// workload read slower in 19 of 26 parent/change pairs without the
// yield (op_ms_p50 26.1 → 29.3 ms over one block of six seeds) and flat
// with it (26.1 → 26.7 ms, 3 wins and 3 losses).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrJobPanic is the sentinel wrapped by every recovered job panic;
// errors.Is(err, ErrJobPanic) classifies a fan-out's failure as a crash
// rather than a cancellation.
var ErrJobPanic = errors.New("job panicked")

// PanicError reports one recovered job panic: which job crashed, the value
// it panicked with, and the goroutine stack captured at the panic site. It
// wraps ErrJobPanic.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

func (e *PanicError) Unwrap() error { return ErrJobPanic }

// Workers normalizes a worker-count setting: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool bounds how many jobs execute simultaneously, across every
// concurrent fan-out sharing it. The zero value is not usable; construct
// with New.
type Pool struct {
	sem chan struct{}
}

// New returns a pool of size Workers(workers).
func New(workers int) *Pool {
	return &Pool{sem: make(chan struct{}, Workers(workers))}
}

// Size reports the pool's bound on concurrently executing jobs.
func (p *Pool) Size() int { return cap(p.sem) }

// Sequential reports whether the pool runs jobs one at a time.
func (p *Pool) Sequential() bool { return cap(p.sem) == 1 }

// acquire blocks for a pool slot, giving up when the context is cancelled
// first. It reports whether a slot was obtained.
func (p *Pool) acquire(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	default:
	}
	select {
	case p.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// windowPerWorker sizes a stream's look-ahead: workers claim no index
// windowPerWorker·Size or more past the one the consumer is waiting for.
// A job at the head of the window idles a worker only if it outlasts the
// windowPerWorker jobs each worker runs behind it. Replaying the measured
// per-scenario times of the reference campaign population (2 000 scenarios,
// mean 0.50 ms, maximum 2.8 ms) through this schedule keeps 16 and 32
// workers 0.98 and 0.97 busy at 4, 0.99 and 0.98 at 8, and no busier at 16
// or 32: 8 is the smallest look-ahead on that plateau, so it is also the
// fewest results resident and the fewest jobs started after a failure.
const windowPerWorker = 8

// Window reports how many jobs a stream on the pool may have claimed but
// not yet delivered.
func (p *Pool) Window() int { return windowPerWorker * p.Size() }

// result carries job i from its worker to the consumer.
type result[T any] struct {
	i     int
	state jobState
	v     T           // set when state is jobRan
	crash *PanicError // set when state is jobCrashed
}

// jobState says how a job ended; the zero value marks a result that has not
// arrived.
type jobState uint8

const (
	_          jobState = iota
	jobRan              // fn returned
	jobCrashed          // fn panicked
	jobSkipped          // the context was cancelled before the job got a slot
)

// runJob runs job i, converting a panic into a PanicError. The recover sits
// in the job's own frame, so the captured stack includes the panic site and
// the caller's pool-slot release still runs.
func runJob[T any](i int, fn func(i int) T) (r result[T]) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			r = result[T]{i: i, state: jobCrashed,
				crash: &PanicError{Job: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}}
		}
	}()
	return result[T]{i: i, state: jobRan, v: fn(i)}
}

// runSlot runs job i under a pool slot.
func runSlot[T any](ctx context.Context, p *Pool, i int, fn func(i int) T) result[T] {
	if !p.acquire(ctx) {
		return result[T]{i: i, state: jobSkipped}
	}
	defer func() { <-p.sem }()
	return runJob(i, fn)
}

// Stream runs fn(0), fn(1), …, fn(n-1) on the pool and calls emit(i, v)
// with each result on the calling goroutine, in index order, while later
// jobs are still running. fn must derive everything it needs (seeds
// included) from its index argument, must not communicate with other jobs,
// and must not fan out on the same pool (see the package comment; deal the
// inner jobs into this stream instead). Workers claim indices in order and
// stay inside the pool's Window of the next index to emit, so a consumer
// that folds results as they arrive holds at most a window of them.
//
// Cancelling ctx stops unstarted jobs and returns ctx.Err() once every
// in-flight job has finished; emit has then seen a gap-free prefix 0..k-1
// of the jobs that ran.
//
// A job that panics does not kill the process: the panic is recovered in
// the job's slot (which is released normally), emit is not called for that
// index, the remaining jobs run and are emitted, and Stream returns a
// *PanicError wrapping ErrJobPanic for the lowest-index crashed job, with
// the panic value and stack attached. Both execution paths recover
// identically, so a crash reproduces at any worker count.
func Stream[T any](ctx context.Context, p *Pool, n int, fn func(i int) T, emit func(i int, v T)) error {
	// deliver takes the results in index order; it keeps the first — so the
	// lowest-index — crash and stops emitting at the first gap.
	var crash *PanicError
	gap := false
	deliver := func(r result[T]) {
		switch r.state {
		case jobSkipped:
			gap = true
		case jobCrashed:
			if crash == nil {
				crash = r.crash
			}
		case jobRan:
			if !gap {
				emit(r.i, r.v)
			}
		}
	}
	finish := func() error {
		if crash != nil {
			return crash
		}
		return ctx.Err()
	}
	if n == 0 {
		return finish()
	}
	if p.Sequential() || n == 1 {
		if !p.acquire(ctx) {
			return finish()
		}
		defer func() { <-p.sem }()
		for i := 0; i < n && ctx.Err() == nil; i++ {
			deliver(runJob(i, fn))
		}
		return finish()
	}

	s := &stream[T]{slots: make([]result[T], min(n, p.Window())), n: n, live: min(n, p.Size())}
	s.arrived.L, s.room.L = &s.mu, &s.mu
	var wg sync.WaitGroup
	// Deferred so that a panicking emit strands no worker.
	defer func() {
		s.mu.Lock()
		s.closed = true
		s.room.Broadcast()
		s.mu.Unlock()
		wg.Wait()
	}()
	for k := s.live; k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := s.claim(ctx); ok; i, ok = s.claim(ctx) {
				s.post(runSlot(ctx, p, i, fn))
				// Let whatever else is runnable have the processor; see
				// the package comment.
				runtime.Gosched()
			}
		}()
	}
	for r, ok := s.take(); ok; r, ok = s.take() {
		deliver(r)
	}
	return finish()
}

// stream is the state the workers and the consumer of one Stream share:
// a monitor around a ring of w result slots. Indices delivered..next-1 are
// out — claimed and not yet delivered — and never more than w of them, so
// slots[i%w] is free for result i from its claim to its delivery.
type stream[T any] struct {
	mu        sync.Mutex
	arrived   sync.Cond // the result the consumer waits for is in, or the last worker has left
	room      sync.Cond // a delivery let the next index into the window, or the stream closed
	slots     []result[T]
	n         int  // jobs in the stream
	next      int  // the next index to claim
	delivered int  // results taken by the consumer
	live      int  // workers that have not left
	closed    bool // the consumer has left: claim nothing more
}

// claim blocks until the next index is inside the window and returns it;
// ok is false once there is nothing more to claim — every index is taken,
// the context is cancelled or the consumer has left — and the worker
// calling it is then counted out.
func (s *stream[T]) claim(ctx context.Context) (i int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.next < s.n && ctx.Err() == nil {
		if s.next < s.delivered+len(s.slots) {
			s.next++
			return s.next - 1, true
		}
		// Every delivery wakes the waiters, and a full window has
		// deliveries to come whether or not the context is cancelled.
		s.room.Wait()
	}
	s.live--
	s.arrived.Signal()
	return 0, false
}

// post hands in the result of a claimed index.
func (s *stream[T]) post(r result[T]) {
	s.mu.Lock()
	s.slots[r.i%len(s.slots)] = r
	if r.i == s.delivered {
		s.arrived.Signal()
	}
	s.mu.Unlock()
}

// take blocks for the next result in index order; ok is false when every
// claimed index has been taken and no worker is left to claim another.
func (s *stream[T]) take() (r result[T], ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.slots[s.delivered%len(s.slots)]
	for slot.state == 0 {
		if s.live == 0 && s.delivered == s.next {
			return r, false
		}
		s.arrived.Wait()
	}
	r, *slot = *slot, result[T]{}
	s.delivered++
	s.room.Broadcast()
	return r, true
}

// Map runs fn(0), fn(1), …, fn(n-1) on the pool and returns their results
// in index order regardless of completion order. fn must derive everything
// it needs (seeds included) from its index argument, must not communicate
// with other jobs, and must not call Map on the same pool (see the package
// comment).
//
// Cancelling ctx stops unstarted jobs and returns ctx.Err() once every
// in-flight job has finished; the result slice then holds zero values at
// the indices that never ran. With a background context the execution —
// and, for deterministic fn, the results — are identical to the historical
// context-free Map.
//
// A job that panics does not kill the process: the panic is recovered in
// the job's slot (which is released normally), the remaining jobs run to
// completion, and Map returns a *PanicError wrapping ErrJobPanic for the
// lowest-index crashed job, with the panic value and stack attached. The
// crashed index holds its zero value in the result slice. Both execution
// paths recover identically, so a crash reproduces at any worker count.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	// Each job stores its own result, so a cancelled Map keeps every job
	// that ran and not only the prefix a stream would have emitted.
	err := Stream(ctx, p, n,
		func(i int) struct{} { out[i] = fn(i); return struct{}{} },
		func(int, struct{}) {})
	return out, err
}
