// Package harness is the experiment registry: one entry per table or figure
// of the paper's evaluation, each able to regenerate the corresponding rows
// or series from simulation and/or the analytic models.
//
// Experiments print aligned text tables. Absolute numbers need not match the
// paper's testbed hardware; the registry exists to reproduce the *shape* of
// every result (who wins, by what factor, where crossovers sit), with the
// analytic curves printed alongside as ground truth where the paper has
// them.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/sim"
)

// EventKind enumerates the progress notifications a collection emits.
type EventKind int

const (
	// EventExperimentStart fires when an experiment's collection is
	// dispatched. Experiments in one RunAll all dispatch up front and
	// their simulation jobs interleave on the shared worker pool, so
	// several experiments are legitimately "started" at once; per-job
	// progress is what EventJobs tracks.
	EventExperimentStart EventKind = iota
	// EventExperimentDone fires when an experiment finishes (Err set on
	// failure).
	EventExperimentDone
	// EventJobs fires whenever the cumulative simulation-job counters of
	// the top-level call change: jobs are registered as sweeps fan out and
	// counted down as workers complete them.
	EventJobs
)

// Event is one structured progress notification from a running collection.
// Events are emitted from worker goroutines; sinks must be safe for
// concurrent calls and fast.
type Event struct {
	Kind       EventKind
	Experiment string // experiment ID for experiment-scoped events
	Err        error  // failure, on EventExperimentDone
	// JobsDone and JobsTotal are the cumulative counters across the whole
	// top-level call (one RunAll spanning many experiments shares one pair).
	JobsDone, JobsTotal int
}

// Config controls experiment scale. Quick (default) settings keep the whole
// registry runnable in minutes; Full reproduces the paper's scale.
type Config struct {
	// Duration and Warmup bound each testbed-scenario run (the paper's
	// Iperf sessions run 120 s).
	Duration, Warmup sim.Time
	// DCDuration and DCWarmup bound the packet-heavy data-center runs.
	DCDuration, DCWarmup sim.Time
	// Seeds is the number of repetitions per point (the paper takes 5).
	Seeds int
	// BaseSeed anchors the deterministic RNG chain.
	BaseSeed int64
	// FatTreeK is the fabric arity: 8 at paper scale, 4 for quick runs.
	FatTreeK int
	// Subflows lists the subflow counts swept in Fig. 13(a); Fig. 13(b),
	// Fig. 14 and Table III run at the last one, so it cannot be empty.
	Subflows []int
	// Workers bounds how many simulation jobs run concurrently: 0 selects
	// GOMAXPROCS, 1 forces sequential execution. Every job's RNG seed
	// derives from BaseSeed and the job's position in the sweep — never
	// from scheduling — so experiment output is byte-identical for any
	// worker count.
	Workers int

	// pool is the shared job gate. RunAll installs one so concurrent
	// experiments compete for a single worker budget; when nil (an
	// experiment run directly), each sweep creates its own.
	pool *runner.Pool
	// ctx is the cancellation context of the top-level call, installed by
	// CollectResult/RunAll; nil means context.Background().
	ctx context.Context
	// events is the progress sink (SetProgress); nil drops all events.
	events func(Event)
	// jobs is the shared cumulative job counter of one top-level call
	// (runner.Progress serializes counter updates with their emissions so
	// the EventJobs stream is monotone).
	jobs *runner.Progress
	// fail collects sweep-level failures (recovered job panics) for one
	// experiment's collection. Installed per CollectResult call: sweeps keep
	// merging zero values so no merge logic grows an error path, and
	// CollectResult surfaces the recorded failure instead of the bogus
	// result.
	fail *failSlot
}

// failSlot records the first sweep failure of one collection. Sweeps of one
// experiment can run from concurrent goroutines, hence the lock.
type failSlot struct {
	mu  sync.Mutex
	err error
}

// noteFailure records a sweep error, keeping the first. Context errors are
// not recorded: cancellation is detected and reported by CollectResult's
// own context re-check, with its established error shape.
func (cfg Config) noteFailure(err error) {
	if err == nil || cfg.fail == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	cfg.fail.mu.Lock()
	if cfg.fail.err == nil {
		cfg.fail.err = err
	}
	cfg.fail.mu.Unlock()
}

// failure returns the first recorded sweep failure, if any.
func (cfg Config) failure() error {
	if cfg.fail == nil {
		return nil
	}
	cfg.fail.mu.Lock()
	defer cfg.fail.mu.Unlock()
	return cfg.fail.err
}

// SetProgress installs a progress sink on the configuration: every
// collection run under cfg reports experiment starts/finishes and
// cumulative job progress to fn. fn is called from worker goroutines and
// must be safe for concurrent use.
func SetProgress(cfg *Config, fn func(Event)) { cfg.events = fn }

// workerPool returns the gate simulation jobs must pass through.
func (cfg Config) workerPool() *runner.Pool {
	if cfg.pool != nil {
		return cfg.pool
	}
	return runner.New(cfg.Workers)
}

// context returns the call's cancellation context.
func (cfg Config) context() context.Context {
	if cfg.ctx == nil {
		//simlint:ignore ctxflow nil cfg.ctx is the documented no-cancellation default when Experiment.Collect is called directly rather than through CollectResult
		return context.Background()
	}
	return cfg.ctx
}

// emit sends one progress event, if a sink is installed.
func (cfg Config) emit(ev Event) {
	if cfg.events != nil {
		cfg.events(ev)
	}
}

// newJobCounter builds the shared job counter of one top-level call,
// bridging it to the configuration's event sink.
func (cfg Config) newJobCounter() *runner.Progress {
	if cfg.events == nil {
		return runner.NewProgress(nil)
	}
	events := cfg.events
	return runner.NewProgress(func(done, total int) {
		events(Event{Kind: EventJobs, JobsDone: done, JobsTotal: total})
	})
}

// noteJobs registers n upcoming simulation jobs on the shared counter.
func (cfg Config) noteJobs(n int) {
	if cfg.jobs != nil {
		cfg.jobs.Add(n)
	}
}

// jobDone counts one finished simulation job on the shared counter.
func (cfg Config) jobDone() {
	if cfg.jobs != nil {
		cfg.jobs.Step()
	}
}

// Validate rejects configurations that previously fell through to silent
// defaults or nonsense runs: negative worker or seed counts, non-positive
// measurement windows (metrics divide by the duration — a zero window
// would render NaN columns without erroring), and an odd or negative
// FatTree arity (including 0: topo would silently substitute the
// expensive paper-scale K=8 fabric while result preambles report K=0),
// and an empty Subflows list (fig13b, fig14 and table3 index its last
// entry). A zero count still selects its documented default (Seeds 0 → 1,
// Workers 0 → GOMAXPROCS), so only those fields tolerate omission;
// durations, the arity and the subflow list have no safe default and must
// be set (use DefaultConfig or FullConfig as the base).
func (cfg Config) Validate() error {
	if cfg.Workers < 0 {
		return fmt.Errorf("harness: negative worker count %d", cfg.Workers)
	}
	if cfg.Seeds < 0 {
		return fmt.Errorf("harness: negative seed count %d", cfg.Seeds)
	}
	if cfg.Duration <= 0 || cfg.Warmup < 0 {
		return fmt.Errorf("harness: run duration must be positive and warmup non-negative (duration %v, warmup %v)", cfg.Duration, cfg.Warmup)
	}
	if cfg.DCDuration <= 0 || cfg.DCWarmup < 0 {
		return fmt.Errorf("harness: data-center duration must be positive and warmup non-negative (duration %v, warmup %v)", cfg.DCDuration, cfg.DCWarmup)
	}
	if cfg.FatTreeK < 2 || cfg.FatTreeK%2 != 0 {
		return fmt.Errorf("harness: FatTree arity %d must be even and at least 2", cfg.FatTreeK)
	}
	if len(cfg.Subflows) == 0 {
		return fmt.Errorf("harness: no subflow counts: the data-center experiments run at the last entry of Subflows")
	}
	for _, n := range cfg.Subflows {
		if n < 1 {
			return fmt.Errorf("harness: subflow count %d must be at least 1", n)
		}
	}
	return nil
}

// DefaultConfig is the quick configuration used by `go test -bench`.
func DefaultConfig() Config {
	return Config{
		Duration:   60 * sim.Second,
		Warmup:     5 * sim.Second,
		DCDuration: 3 * sim.Second,
		DCWarmup:   500 * sim.Millisecond,
		Seeds:      1,
		BaseSeed:   42,
		FatTreeK:   4,
		Subflows:   []int{2, 3, 4},
	}
}

// FullConfig reproduces the paper's scale (120 s runs, 5 seeds, K=8 fabric,
// 2..8 subflows). Select it with MPTCPSIM_FULL=1.
func FullConfig() Config {
	return Config{
		Duration:   120 * sim.Second,
		Warmup:     10 * sim.Second,
		DCDuration: 8 * sim.Second,
		DCWarmup:   sim.Second,
		Seeds:      5,
		BaseSeed:   42,
		FatTreeK:   8,
		Subflows:   []int{2, 3, 4, 5, 6, 7, 8},
	}
}

// Experiment regenerates one table or figure. Every experiment is split
// into collect and render: Collect runs the simulations (already parallel
// via the worker pool) and returns the structured Result; rendering —
// RenderText, RenderJSON, RenderCSV — consumes the Result alone.
type Experiment struct {
	// ID is the short handle used by the CLI and bench names ("fig1b").
	ID string
	// PaperRef names the artifact in the paper ("Figure 1(b)").
	PaperRef string
	// Title describes what the artifact shows.
	Title string
	// Collect executes the experiment's simulations and analytic
	// evaluations and returns the structured result.
	Collect func(cfg Config) (*Result, error)
	// Text is the experiment family's bespoke table layout, reading only
	// from the Result's cells; nil falls back to the generic layout.
	Text func(r *Result, w io.Writer) error
}

// CollectResult validates the configuration, runs Collect under ctx, and
// stamps the registry metadata onto the Result. Cancelling ctx stops the
// experiment's simulation jobs at the next job boundary and returns an
// error wrapping ctx.Err(); any partially collected result is discarded.
//
// A simulation job that panics is recovered inside the worker pool (see
// runner.Map): the experiment's remaining jobs complete, the merged result
// is discarded, and CollectResult returns the *runner.PanicError — wrapping
// runner.ErrJobPanic — with the crash stack attached. Sibling experiments
// sharing the pool are unaffected.
func (e *Experiment) CollectResult(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s: collection canceled: %w", e.ID, err)
	}
	cfg.ctx = ctx
	if cfg.jobs == nil {
		cfg.jobs = cfg.newJobCounter()
	}
	cfg.fail = &failSlot{}
	r, err := e.Collect(cfg)
	if err != nil {
		return nil, err
	}
	// A cancelled sweep returns zero values for the jobs that never ran;
	// whatever Collect merged from them is not a real result.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s: collection canceled: %w", e.ID, err)
	}
	// Likewise a crashed sweep: some job never produced its value.
	if err := cfg.failure(); err != nil {
		return nil, err
	}
	r.ID, r.PaperRef, r.Title = e.ID, e.PaperRef, e.Title
	return r, nil
}

// Run collects the experiment and renders its table to w — the classic
// entry point, equivalent to CollectResult followed by RenderText.
func (e *Experiment) Run(ctx context.Context, cfg Config, w io.Writer) error {
	r, err := e.CollectResult(ctx, cfg)
	if err != nil {
		return err
	}
	return RenderText(r, w)
}

var (
	registry []*Experiment
	byID     = map[string]*Experiment{}
)

// register adds an experiment at package init time; duplicate IDs are a
// programming error and panic immediately.
func register(e *Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment ID %q", e.ID))
	}
	registry = append(registry, e)
	byID[e.ID] = e
}

// Experiments lists the registry in registration (paper) order.
func Experiments() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	return out
}

// Get finds an experiment by ID, or nil.
func Get(id string) *Experiment {
	return byID[id]
}

// IDs lists the registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
