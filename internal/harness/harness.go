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
	"fmt"
	"io"
	"sort"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// EventKind enumerates the progress notifications a collection emits.
type EventKind int

const (
	// EventExperimentStart fires once per experiment before the first job
	// runs: the jobs of every experiment in a call are dealt into one
	// stream, so all of them are legitimately "started" at once; per-job
	// progress is what EventJobs tracks.
	EventExperimentStart EventKind = iota
	// EventExperimentDone fires when an experiment has been folded and
	// handed on, or has failed (Err set). Experiments behind a failed one
	// still run but are not folded and report nothing.
	EventExperimentDone
	// EventJobs fires once with the call's job total — the networks it
	// runs, one per distinct Spec — before the first job runs, then once
	// per finished job; the total never changes.
	EventJobs
)

// Event is one structured progress notification from a running collection.
// Every event is emitted on the goroutine that called CollectResult or
// RunAll, which waits for the sink: it must be fast.
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
}

// Validate rejects configurations that previously fell through to silent
// defaults or nonsense runs: negative worker or seed counts, non-positive
// measurement windows (metrics divide by the duration — a zero window
// would render NaN columns without erroring), a warmup plus duration longer
// than a scenario can hold (scenario.MaxSpecSec; every job would panic in
// compile), an odd or negative FatTree arity (including 0:
// scenario.PaperFatTree would silently default to the expensive K=8 fabric
// while result preambles report K=0), and an empty Subflows list (fig13b,
// fig14 and table3 index its last entry). A zero count still selects its
// documented default (Seeds 0 → 1, Workers 0 → GOMAXPROCS), so only those
// fields tolerate omission; durations, the arity and the subflow list have
// no safe default and must be set (use DefaultConfig or FullConfig).
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
	for _, w := range [][2]sim.Time{{cfg.Warmup, cfg.Duration}, {cfg.DCWarmup, cfg.DCDuration}} {
		if w[0].Sec()+w[1].Sec() > scenario.MaxSpecSec {
			return fmt.Errorf("harness: run of %gs longer than the %gs a scenario can hold", w[0].Sec()+w[1].Sec(), float64(scenario.MaxSpecSec))
		}
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
// 2..8 subflows). `mptcpsim -full` selects it.
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

// Experiment regenerates one table or figure. An entry is data about the
// work, not a function that performs it: Plan lays out the independent
// simulation jobs and the fold that turns their results into the structured
// Result; CollectResult and RunAll run the jobs, and rendering — RenderText,
// RenderJSON, RenderCSV — consumes the Result alone.
type Experiment struct {
	// ID is the short handle used by the CLI and bench names ("fig1b").
	ID string
	// PaperRef names the artifact in the paper ("Figure 1(b)").
	PaperRef string
	// Title describes what the artifact shows.
	Title string
	// Plan lays out the experiment's work under a configuration.
	Plan func(cfg Config) Plan
	// Text is the experiment's text layout, reading only from the
	// Result's cells: its table's, or a bespoke one where the table's
	// cannot print the paper's layout; nil falls back to the generic one.
	Text func(r *Result, w io.Writer) error
}

// Plan is one experiment's work under one Config: its jobs and the fold
// that runs once all of them are read. Every experiment's plan is its
// table's (see table.plan); the closed-form figures have no jobs.
type Plan struct {
	// Jobs are the experiment's independent networks. Everything a job
	// needs, its RNG seed included, is fixed when the plan is made.
	Jobs []Job
	// Fold merges the stored results in index order into the Result. It
	// runs on the calling goroutine after every job has been read.
	Fold func() (*Result, error)
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
