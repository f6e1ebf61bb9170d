package mptcpsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"mptcpsim/internal/campaign"
	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/harness"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// ProgressKind enumerates the structured progress notifications a Lab
// emits while a context-aware call runs.
type ProgressKind int

const (
	// ProgressExperimentStarted fires when an experiment begins collecting.
	ProgressExperimentStarted ProgressKind = iota
	// ProgressExperimentFinished fires when an experiment completes (Err is
	// set if it failed).
	ProgressExperimentFinished
	// ProgressJobs fires when the call's cumulative job counters change:
	// simulated networks for Collect/RunAll (a scenario that several
	// experiments of one call list runs, and counts, once), scenarios for
	// Campaign. Total is announced once, before the first job runs; Done
	// grows as jobs finish.
	ProgressJobs
)

// ProgressEvent is one structured notification from a running Lab call.
type ProgressEvent struct {
	// Kind is the event type.
	Kind ProgressKind
	// Experiment is the experiment ID, on experiment-scoped events.
	Experiment string
	// Err is the failure, on ProgressExperimentFinished events.
	Err error
	// Done and Total are the call's cumulative job counters, on
	// ProgressJobs events.
	Done, Total int
}

// Lab is the simulation engine behind the public API: one configured
// instance exposing every long-running entry point as a context-aware
// method. Construct it once with functional options, then issue calls —
// the Lab itself is stateless between calls and safe for concurrent use;
// cancellation is per-call via the context, and progress streaming is
// per-Lab via WithProgress.
//
//	lab := mptcpsim.NewLab(
//		mptcpsim.WithConfig(mptcpsim.FullConfig()),
//		mptcpsim.WithWorkers(8),
//		mptcpsim.WithProgress(func(ev mptcpsim.ProgressEvent) { ... }),
//	)
//	err := lab.RunAll(ctx, nil, mptcpsim.FormatText, os.Stdout)
type Lab struct {
	cfg      Config
	watchdog time.Duration
	progress func(ProgressEvent)
	mu       sync.Mutex // serializes progress delivery across concurrent calls
}

// Option configures a Lab at construction.
type Option func(*Lab)

// WithConfig sets the harness configuration (DefaultConfig if omitted).
func WithConfig(cfg Config) Option {
	return func(l *Lab) { l.cfg = cfg }
}

// WithWorkers bounds how many simulation jobs run concurrently across any
// one call: 0 selects GOMAXPROCS, 1 forces sequential execution, and a
// negative count makes every fanning-out method (Collect, RunAll,
// Campaign) return ErrInvalidConfig. Results are byte-identical for any
// worker count.
func WithWorkers(n int) Option {
	return func(l *Lab) { l.cfg.Workers = n }
}

// WithProgress installs a progress sink. fn runs on the goroutine that
// called the Lab method, for every method: each engine counts progress
// where it folds results, never on a worker. Delivery is also serialized
// across concurrent calls on one Lab — every event passes through one
// Lab-held lock around fn — so fn never runs twice at once and needs no
// locking of its own to maintain counters or write to a stream. fn stalls
// the call's fold while it executes, so it must not block and must not
// call back into the Lab.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(l *Lab) { l.progress = fn }
}

// WithWatchdog bounds each Lab.Run call to d of wall-clock time (default
// off). A scenario that exceeds the budget — a runaway timeline, a spec far
// larger than intended — is abandoned at the next one-second virtual-time
// boundary with an ErrWatchdog error instead of hanging the caller. The
// watchdog never perturbs a run that finishes in time: runs are exact at
// the probed boundaries, so output stays byte-identical with or without it.
func WithWatchdog(d time.Duration) Option {
	return func(l *Lab) { l.watchdog = d }
}

// NewLab builds an engine from the options, starting from DefaultConfig.
func NewLab(opts ...Option) *Lab {
	l := &Lab{cfg: DefaultConfig()}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Config returns the Lab's effective configuration.
func (l *Lab) Config() Config { return l.cfg }

// emit delivers one progress event, serialized.
func (l *Lab) emit(ev ProgressEvent) {
	if l.progress == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.progress(ev)
}

// jobsProgress adapts a (done, total) campaign counter to the sink.
func (l *Lab) jobsProgress() func(done, total int) {
	if l.progress == nil {
		return nil
	}
	return func(done, total int) {
		l.emit(ProgressEvent{Kind: ProgressJobs, Done: done, Total: total})
	}
}

// harnessProgress bridges harness events into the sink (nil without one).
// Errors are classified before emitting so sinks can errors.Is-match an
// event's Err exactly like the error op returns.
func (l *Lab) harnessProgress(op string) func(harness.Event) {
	if l.progress == nil {
		return nil
	}
	return func(ev harness.Event) {
		switch ev.Kind {
		case harness.EventExperimentStart:
			l.emit(ProgressEvent{Kind: ProgressExperimentStarted, Experiment: ev.Experiment})
		case harness.EventExperimentDone:
			l.emit(ProgressEvent{Kind: ProgressExperimentFinished, Experiment: ev.Experiment,
				Err: classify(op, ev.Experiment, ev.Err)})
		case harness.EventJobs:
			l.emit(ProgressEvent{Kind: ProgressJobs, Done: ev.JobsDone, Total: ev.JobsTotal})
		}
	}
}

// validConfig tags a rejected configuration with ErrInvalidConfig.
func (l *Lab) validConfig(op string) error {
	if err := l.cfg.Validate(); err != nil {
		return apiErr(op, "", ErrInvalidConfig, err)
	}
	return nil
}

// validWorkers tags a negative worker budget with ErrInvalidConfig, for
// the methods that use no other part of the Config.
func (l *Lab) validWorkers(op string) error {
	if l.cfg.Workers < 0 {
		return apiErr(op, "", ErrInvalidConfig, fmt.Errorf("negative worker count %d", l.cfg.Workers))
	}
	return nil
}

// Collect regenerates one table or figure by ID (e.g. "fig9", "table3")
// and returns its structured Result. Independent simulation jobs (sweep
// points × seeds) run concurrently on the Lab's worker budget; the Result
// is identical for any worker count. Cancelling ctx stops the collection
// at the next job boundary with an ErrCanceled error.
func (l *Lab) Collect(ctx context.Context, id string) (*Result, error) {
	const op = "collect"
	e := harness.Get(id)
	if e == nil {
		return nil, apiErr(op, id, ErrUnknownExperiment, knownExperimentsErr())
	}
	if err := l.validConfig(op); err != nil {
		return nil, err
	}
	r, err := e.CollectResult(ctx, l.cfg, l.harnessProgress(op))
	if err != nil {
		return nil, classify(op, id, err)
	}
	return r, nil
}

// RunAll regenerates the experiments with the given IDs — the full
// registry in paper order when ids is empty — writing each experiment's
// rendered result to w in listing order: text streams banner+table per
// experiment, json one array of Result objects, csv one
// blank-line-separated block per experiment. All experiments share one
// pool of workers and the bytes are identical to running them one at a
// time at any worker count. Cancelling ctx stops every experiment at the
// next simulation-job boundary, flushes the experiments that already
// completed, and returns an ErrCanceled error.
func (l *Lab) RunAll(ctx context.Context, ids []string, format Format, w io.Writer) error {
	const op = "run-all"
	if _, err := ParseFormat(string(format)); err != nil {
		return apiErr(op, "", ErrInvalidConfig, err)
	}
	if err := l.validConfig(op); err != nil {
		return err
	}
	for _, id := range ids {
		if harness.Get(id) == nil {
			return apiErr(op, id, ErrUnknownExperiment, knownExperimentsErr())
		}
	}
	return classify(op, "", harness.RunAll(ctx, l.cfg, ids, format, w, l.harnessProgress(op)))
}

// Run validates, compiles and executes a declarative scenario, measuring
// goodput over [Warmup, Warmup+Duration] and checking the
// packet-conservation, capacity, monotonicity and queue-bound invariants.
// Cancelling ctx abandons the simulation at a one-second virtual-time
// boundary with an ErrCanceled error; a WithWatchdog budget expiring does
// the same with an ErrWatchdog error.
func (l *Lab) Run(ctx context.Context, spec ScenarioSpec) (*ScenarioReport, error) {
	const op = "run"
	if err := spec.Validate(); err != nil {
		return nil, apiErr(op, spec.Name, ErrInvalidSpec, err)
	}
	runCtx := ctx
	if l.watchdog > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, l.watchdog)
		defer cancel()
	}
	rep, err := scenario.Run(runCtx, &spec)
	if err != nil {
		// The watchdog firing shows up as the run context's deadline with
		// the caller's own context still live.
		if l.watchdog > 0 && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			return nil, apiErr(op, spec.Name, ErrWatchdog, err)
		}
		return nil, classify(op, spec.Name, err)
	}
	return rep, nil
}

// Campaign samples spec.N scenarios from the campaign's parameter
// distributions — scenario i is a pure function of (spec, i) — runs each
// on the Lab's worker budget, and folds every report through streaming
// aggregators (count, mean/variance, deterministic quantile sketch), so
// memory stays O(workers) at any campaign size. With spec.CacheDir set,
// runs are kept in one cache pack per campaign, each record keyed by
// (Version(), sampled scenario); a fully cached re-run performs zero
// simulations and reproduces the cold Result byte for byte. The Result —
// including its Digest — is byte-identical at any worker count.
// A negative worker budget is ErrInvalidConfig. Cancelling ctx stops the
// campaign at the next scenario boundary with an ErrCanceled error; the
// runs it delivered in index order before the first unfinished one stay
// cached, so a canceled campaign resumes from that prefix.
func (l *Lab) Campaign(ctx context.Context, spec CampaignSpec) (*CampaignResult, error) {
	const op = "campaign"
	if err := spec.Validate(); err != nil {
		return nil, apiErr(op, spec.Name, ErrInvalidSpec, err)
	}
	if err := l.validWorkers(op); err != nil {
		return nil, err
	}
	res, err := campaign.Run(ctx, &spec, campaign.Options{
		Workers:  l.cfg.Workers,
		Version:  Version(),
		Progress: l.jobsProgress(),
	})
	if err != nil {
		return nil, classify(op, spec.Name, err)
	}
	return res, nil
}

// Analyze evaluates the paper's loss-throughput fixed points for a user
// with the given per-path loss probabilities and RTTs (seconds), without
// simulation. MSS is 1500 B. A loss outside (0, 1] or an RTT that is not
// positive and finite is ErrInvalidSpec.
func (l *Lab) Analyze(loss, rtts []float64) (TwoPathAnalysis, error) {
	const op = "analyze"
	if len(loss) != len(rtts) || len(loss) == 0 {
		return TwoPathAnalysis{}, apiErr(op, "", ErrInvalidSpec,
			fmt.Errorf("need matching non-empty loss and rtt slices (%d vs %d)", len(loss), len(rtts)))
	}
	for i := range loss {
		if !(0 < loss[i] && loss[i] <= 1) || !(0 < rtts[i] && rtts[i] < math.Inf(1)) {
			return TwoPathAnalysis{}, apiErr(op, "", ErrInvalidSpec,
				fmt.Errorf("loss must be in (0, 1] and rtt positive and finite (path %d: p=%g rtt=%g)", i, loss[i], rtts[i]))
		}
	}
	var out TwoPathAnalysis
	var best float64
	for i := range loss {
		if r := fixedpoint.TCPRate(loss[i], rtts[i]); r > best {
			best = r
		}
	}
	out.TCPBestMbps = stats.PktsPerSecMbps(best)
	for _, r := range fixedpoint.LIARates(loss, rtts) {
		out.LIAMbps = append(out.LIAMbps, stats.PktsPerSecMbps(r))
	}
	for _, r := range fixedpoint.OLIARates(loss, rtts) {
		out.OLIAMbps = append(out.OLIAMbps, stats.PktsPerSecMbps(r))
	}
	return out, nil
}

// knownExperimentsErr lists the registry for unknown-experiment errors.
func knownExperimentsErr() error { return fmt.Errorf("have %v", harness.IDs()) }
