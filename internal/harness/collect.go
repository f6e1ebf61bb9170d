package harness

import (
	"context"
	"errors"
	"fmt"

	"mptcpsim/internal/runner"
)

// This file is the bridge between the experiment registry and the parallel
// runner. An experiment is a job list and a fold: its plan lays independent
// (sweep point × seed) simulation jobs out by index, collect runs the jobs
// of every selected experiment in one stream on one worker pool, and each
// fold merges the typed per-job results in canonical (point, seed) order.
// Because job seeds derive from Config.BaseSeed and the job's sweep
// position, and folding walks results in index order, the rendered bytes
// are identical for any Config.Workers setting.

// sweep plans one job per (point, seed) pair and a fold over, for each
// point, the per-seed results in seed order. The seed passed to job is
// cfg.BaseSeed + s for repetition s, exactly the chain the sequential
// harness used.
func sweep[P, T any](cfg Config, points []P, job func(ctx context.Context, p P, seed int64) T, fold func(per [][]T) (*Result, error)) Plan {
	seeds := max(cfg.Seeds, 1)
	flat := make([]T, len(points)*seeds)
	return Plan{
		Jobs: len(flat),
		Job: func(ctx context.Context, i int) {
			flat[i] = job(ctx, points[i/seeds], cfg.BaseSeed+int64(i%seeds))
		},
		Fold: func() (*Result, error) {
			per := make([][]T, len(points))
			for i := range per {
				per[i] = flat[i*seeds : (i+1)*seeds]
			}
			return fold(per)
		},
	}
}

// perPoint plans one job per point (for studies that use a single
// repetition at cfg.BaseSeed, such as the ablations) and a fold over the
// results in point order.
func perPoint[P, T any](points []P, job func(ctx context.Context, p P) T, fold func(out []T) (*Result, error)) Plan {
	out := make([]T, len(points))
	return Plan{
		Jobs: len(points),
		Job:  func(ctx context.Context, i int) { out[i] = job(ctx, points[i]) },
		Fold: func() (*Result, error) { return fold(out) },
	}
}

// closedForm is the plan of an analytic figure: no jobs, and a fold that
// evaluates the model.
func closedForm(fold func() (*Result, error)) func(Config) Plan {
	return func(Config) Plan { return Plan{Fold: fold} }
}

// collect is the package's one fan-out: it lays the jobs of exps into a
// single runner.Stream on a pool made for the call, counts deliveries per
// experiment on the calling goroutine, and as soon as an experiment's last
// job is in — and every experiment before it in listing order is settled —
// folds it, stamps the registry metadata and hands the Result to settled.
// The job total is announced once, before the first job runs.
//
// Stream indices are dealt round-robin across the experiments (job 0 of
// each, then job 1 of each, …) so that one experiment's long jobs start
// early and spread over the workers instead of queueing behind every job
// listed before them: dealt in listing order, the paper_tables benchmark's
// three 50 ms table3 jobs begin after 19 short ones and two workers finish
// about 10 % later.
//
// The first failure ends the settling, not the jobs: later experiments
// still run and are dropped. failed is the index of the experiment err is
// about, or -1 when err is nil or came from settled:
//   - a fold error fails its experiment;
//   - a panicking job is recovered by Stream, whose *runner.PanicError
//     (lowest crashed index) fails the experiment owning that index — its
//     count never reaches zero, so nothing behind it is handed on;
//   - cancelling ctx stops unstarted jobs; Stream has then delivered a
//     gap-free prefix, whose completed experiments are already handed on,
//     and the first unsettled one is reported canceled. A job in flight at
//     the cancellation returns zero metrics (see run), so nothing settles
//     once ctx is done.
func collect(ctx context.Context, cfg Config, exps []*Experiment, progress func(Event), settled func(r *Result) error) (failed int, err error) {
	if progress == nil {
		progress = func(Event) {}
	}
	plans := make([]Plan, len(exps))
	left := make([]int, len(exps)) // jobs of each experiment not yet delivered
	total := 0
	for i, e := range exps {
		plans[i] = e.Plan(cfg)
		left[i] = plans[i].Jobs
		total += left[i]
		progress(Event{Kind: EventExperimentStart, Experiment: e.ID})
	}
	type slot struct{ exp, job int }
	deal := make([]slot, 0, total)
	for j := 0; len(deal) < total; j++ {
		for i := range plans {
			if j < plans[i].Jobs {
				deal = append(deal, slot{i, j})
			}
		}
	}
	progress(Event{Kind: EventJobs, JobsTotal: total})

	next := 0 // the first experiment in listing order not yet settled
	failed = -1
	settle := func() {
		for err == nil && next < len(exps) && left[next] == 0 && ctx.Err() == nil {
			var r *Result
			if r, err = plans[next].Fold(); err != nil {
				failed = next
				return
			}
			e := exps[next]
			r.ID, r.PaperRef, r.Title = e.ID, e.PaperRef, e.Title
			if err = settled(r); err != nil {
				return
			}
			progress(Event{Kind: EventExperimentDone, Experiment: e.ID})
			plans[next] = Plan{} // folded and handed on: let its jobs' results go
			next++
		}
	}
	settle() // closed-form experiments at the head of the list wait for nothing
	done := 0
	streamErr := runner.Stream(ctx, runner.New(cfg.Workers), total, func(k int) struct{} {
		plans[deal[k].exp].Job(ctx, deal[k].job)
		return struct{}{}
	}, func(k int, _ struct{}) {
		done++
		progress(Event{Kind: EventJobs, JobsDone: done, JobsTotal: total})
		left[deal[k].exp]--
		settle()
	})

	var crash *runner.PanicError
	switch {
	case err != nil: // a fold or settled failed first
	case errors.As(streamErr, &crash):
		owner := deal[crash.Job]
		crash.Job = owner.job // the experiment's own job index, not the stream's
		failed, err = owner.exp, crash
	case next < len(exps):
		failed, err = next, fmt.Errorf("collection canceled: %w", streamErr)
	}
	if failed >= 0 {
		err = fmt.Errorf("harness: %s: %w", exps[failed].ID, err)
		progress(Event{Kind: EventExperimentDone, Experiment: exps[failed].ID, Err: err})
	}
	return failed, err
}

// CollectResult validates the configuration and runs the experiment's plan
// under ctx, reporting to progress (nil drops the events). Cancelling ctx
// stops the experiment's simulation jobs at the next job boundary and
// returns an error wrapping ctx.Err().
//
// A simulation job that panics is recovered inside the worker pool (see
// runner.Stream): the experiment's remaining jobs complete, nothing is
// folded, and CollectResult returns the *runner.PanicError — wrapping
// runner.ErrJobPanic — with the crash stack attached.
func (e *Experiment) CollectResult(ctx context.Context, cfg Config, progress func(Event)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out *Result
	_, err := collect(ctx, cfg, []*Experiment{e}, progress, func(r *Result) error {
		out = r
		return nil
	})
	return out, err
}
