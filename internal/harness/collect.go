package harness

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
)

// This file is the bridge between the experiment registry and the parallel
// runner: a plan lays (row × seed) networks out by index (see table.plan),
// collect runs them all in one stream, and each fold merges the readings in
// canonical order, so the rendered bytes are identical for any worker count.

// Job is one network of a plan and the reader of its run: collect runs
// Spec, and Read stores the job's typed metrics from the finished run's
// report. Read must not change the report, which several jobs may read.
type Job struct {
	Spec *scenario.Spec
	Read func(rep *scenario.RunReport)
}

// collect is the package's one fan-out and the one place a harness network
// is run under ctx, checked and read: it lays the networks of exps into
// one runner.Stream on a pool made for the call, counts readings
// per experiment on the calling goroutine, and as soon as an experiment's
// last job is read — and every experiment before it in listing order is
// settled — folds it, stamps the registry metadata and hands the Result to
// settled. The number of networks is announced once, before the first runs.
//
// Stream indices are dealt round-robin across the experiments (job 0 of
// each, then job 1 of each, …) so that one experiment's long jobs start
// early instead of queueing behind every job listed before them (dealt in
// listing order, paper_tables' three long table3 jobs made two workers
// finish about 10 % later). The first job dealt with an AppendSpec
// encoding owns its index; every later one with that encoding reads the
// same run, on the same worker, in listing order.
//
// The specs come from the scenario builders with registry-fixed
// parameters, so a rejected spec, like an invariant violation on a
// registry network, is a harness bug and panics inside the job. The first
// failure ends the settling, not the jobs: later experiments still run and
// are dropped. failed is the index of the experiment err is about, or -1
// when err is nil or came from settled:
//   - a fold error fails its experiment;
//   - a panicking job is recovered by Stream, whose *runner.PanicError
//     (lowest crashed index) fails the first experiment in listing order
//     that reads that network — its count never reaches zero, so nothing
//     behind it is handed on;
//   - cancelling ctx stops unstarted jobs; Stream has then delivered a
//     gap-free prefix, whose completed experiments are already handed on,
//     and the first unsettled one is reported canceled. A run cut short by
//     the cancellation is not read, and nothing settles once ctx is done.
func collect(ctx context.Context, cfg Config, exps []*Experiment, progress func(Event), settled func(r *Result) error) (failed int, err error) {
	if progress == nil {
		progress = func(Event) {}
	}
	plans := make([]Plan, len(exps))
	left := make([]int, len(exps)) // jobs of each experiment not yet read
	at := make([][]int, len(exps)) // the stream index of each job
	most := 0
	for i, e := range exps {
		plans[i] = e.Plan(cfg)
		left[i] = len(plans[i].Jobs)
		at[i] = make([]int, left[i])
		most = max(most, left[i])
		progress(Event{Kind: EventExperimentStart, Experiment: e.ID})
	}
	total := 0
	// A job's key is the SHA-256 of its encoding, as a campaign cache
	// entry's is: a fat tree's encoding runs to kilobytes.
	owner := map[[sha256.Size]byte]int{} // looked up, never ranged over
	var key []byte                       // one buffer for every encoding
	for j := 0; j < most; j++ {
		for i := range plans {
			if j < len(at[i]) {
				k := total
				var kerr error
				// A Spec that does not encode runs alone and fails to compile there.
				if key, kerr = scenario.AppendSpec(key[:0], plans[i].Jobs[j].Spec); kerr == nil {
					sum := sha256.Sum256(key)
					if o, ok := owner[sum]; ok {
						k = o
					} else {
						owner[sum] = k
					}
				}
				if at[i][j] = k; k == total {
					total++
				}
			}
		}
	}
	type slot struct{ exp, job int }
	readers := make([][]slot, total)
	for i := range at {
		for j, k := range at[i] {
			readers[k] = append(readers[k], slot{i, j})
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
			plans[next] = Plan{} // folded and handed on: let its results go
			next++
		}
	}
	settle() // closed-form experiments at the head of the list wait for nothing
	done := 0
	streamErr := runner.Stream(ctx, runner.New(cfg.Workers), total, func(k int) struct{} {
		sp := plans[readers[k][0].exp].Jobs[readers[k][0].job].Spec
		rep, runErr := scenario.Run(ctx, sp)
		if runErr != nil {
			if ctx.Err() != nil && errors.Is(runErr, ctx.Err()) {
				return struct{}{} // cancelled mid-run: nothing is read or settled
			}
			panic(fmt.Sprintf("harness: %s spec invalid: %v", sp.Name, runErr))
		}
		if len(rep.Violations) != 0 {
			panic(fmt.Sprintf("harness: %s: invariant violations: %v", rep.Name, rep.Violations))
		}
		for _, r := range readers[k] {
			plans[r.exp].Jobs[r.job].Read(rep)
			plans[r.exp].Jobs[r.job] = Job{} // read: let the network go
		}
		return struct{}{}
	}, func(k int, _ struct{}) {
		done++
		progress(Event{Kind: EventJobs, JobsDone: done, JobsTotal: total})
		for _, r := range readers[k] {
			left[r.exp]--
		}
		settle()
	})

	var crash *runner.PanicError
	switch {
	case err != nil: // a fold or settled failed first
	case errors.As(streamErr, &crash):
		first := readers[crash.Job][0]
		crash.Job = first.job // the experiment's own job index, not the stream's
		failed, err = first.exp, crash
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
