package scenario

import (
	"context"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/sim"
)

// newProgressCounter builds a campaign's serialized (done, total) counter
// (runner.Progress) pre-loaded with the known total, announcing (0, total)
// immediately when a sink is set.
func newProgressCounter(fn func(done, total int), total int) *runner.Progress {
	c := runner.NewProgress(fn)
	c.Add(total)
	return c
}

// advanceUntil advances s from virtual time `from` to `to`, observing ctx
// at one-second virtual-time boundaries and returning ctx.Err() when
// cancelled mid-run. sim.RunUntil is exact at window boundaries, so the
// sliced execution processes the identical event sequence as one
// uninterrupted call; with a non-cancellable context the slicing is
// skipped entirely.
func advanceUntil(ctx context.Context, s *sim.Sim, from, to sim.Time) error {
	if ctx.Done() == nil {
		s.RunUntil(to)
		return nil
	}
	for t := from; t < to; {
		if err := ctx.Err(); err != nil {
			return err
		}
		t += sim.Second
		if t > to {
			t = to
		}
		s.RunUntil(t)
	}
	return ctx.Err()
}
