package scenario

import (
	"context"
	"testing"

	"mptcpsim/internal/runner"
)

// TestDigestWorkerCountStable pins the digest's independence from
// execution concurrency: the same spec run inside runner.Map at pool
// sizes 1, 4 and 8 — alongside unrelated sibling jobs racing for slots —
// fingerprints identically to a direct sequential Run. This is the
// property the campaign cache stands on: a report computed by any worker
// is interchangeable with one computed by any other.
func TestDigestWorkerCountStable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	ref, err := Run(context.Background(), twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		pool := runner.New(workers)
		reps, err := runner.Map(context.Background(), pool, 6, func(i int) *RunReport {
			// Fresh spec per job: jobs must not share state.
			rep, rerr := Run(context.Background(), twoPathSpec())
			if rerr != nil {
				t.Error(rerr)
				return nil
			}
			return rep
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, rep := range reps {
			if rep == nil {
				continue // job error already reported
			}
			if rep.Digest() != ref.Digest() {
				t.Errorf("workers=%d job %d: digest %+v differs from sequential %+v",
					workers, i, rep.Digest(), ref.Digest())
			}
		}
	}
}

// TestDigestNoOpTimelineStable pins a subtler invariant: a timeline whose
// events change nothing observable — a rate setpoint equal to the link's
// standing rate, an Up flap on a path that is already up, a zero-loss
// setpoint on a lossless link — leaves every traffic counter identical to
// the timeline-free spec: the digests' Traffic must match. The one
// legitimate difference is Processed, because each
// timeline event is itself dispatched through the scheduler and counted;
// the test pins that delta to exactly len(Timeline), so any perturbation
// of the actual dynamics (retransmits, drops, extra timer fires) still
// fails loudly.
func TestDigestNoOpTimelineStable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	bare := twoPathSpec()
	ref, err := Run(context.Background(), bare)
	if err != nil {
		t.Fatal(err)
	}

	noop := twoPathSpec()
	noop.Timeline = []TimelineEvent{
		{AtSec: 0.5, Link: &LinkSetpoint{Link: 0, RateMbps: noop.Links[0].RateMbps}},
		{AtSec: 1.2, Path: &PathFlap{Path: 1, Up: true}},
		{AtSec: 1.7, Link: &LinkSetpoint{Link: 1, LossPct: Float(noop.Links[1].LossPct)}},
	}
	if err := noop.Validate(); err != nil {
		t.Fatalf("no-op timeline rejected: %v", err)
	}
	rep, err := Run(context.Background(), noop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("no-op timeline run violated invariants: %v", rep.Violations)
	}
	got, want := rep.Digest(), ref.Digest()
	if got.Traffic != want.Traffic {
		t.Fatalf("no-op timeline perturbed the traffic dynamics:\nwith:    %+v\nwithout: %+v", got, want)
	}
	if got.Processed != want.Processed+uint64(len(noop.Timeline)) {
		t.Fatalf("no-op timeline event accounting drifted: processed %d with timeline, %d without (want exactly +%d for the timeline's own dispatch events)",
			got.Processed, want.Processed, len(noop.Timeline))
	}
}
