package scenario

import (
	"context"
	"testing"

	"mptcpsim/internal/mptcp"
)

// schedStreamSpec is a small scheduler-flow scenario: a finite scheduled
// transfer over two asymmetric paths with background TCP on the slow one.
func schedStreamSpec(name string, seed int64) *Spec {
	return &Spec{
		Name: "sched-test", Seed: seed, WarmupSec: 0, DurationSec: 8,
		Links: []LinkSpec{
			{RateMbps: 8},
			{RateMbps: 2, Queue: QueueDropTail, BufferPkts: 100},
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: 10},
			{Links: []int{1}, DelayMs: 40},
		},
		Flows: []FlowSpec{
			{Name: "stream", Algorithm: "olia", Paths: []int{0, 1},
				FlowBytes: 1 << 20, Scheduler: name, KeepSlowStart: true},
			{Name: "bg", Algorithm: AlgoTCP, Paths: []int{1}, StartSec: 0.1},
		},
	}
}

// TestSchedulerFlowRuns: every registered scheduler compiles, completes its
// transfer, reports it, and moves data no faster than physics allows: the
// best single path (8 Mb/s) for redundant, which sends every byte on every
// path, and the 10 Mb/s aggregate for the rest. The bound has 5 % slack: the
// first chunk is clocked out against an empty window, so a short transfer
// can marginally beat the steady-state line rate.
func TestSchedulerFlowRuns(t *testing.T) {
	for _, name := range mptcp.Schedulers() {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(context.Background(), schedStreamSpec(name, 7))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("violations: %v", rep.Violations)
			}
			sr := rep.Flows[0].Stream
			if sr == nil {
				t.Fatal("scheduler flow has no stream report")
			}
			if sr.Scheduler != name {
				t.Fatalf("stream report names scheduler %q, want %q", sr.Scheduler, name)
			}
			if !sr.Done || sr.CompletionSec <= 0 {
				t.Fatalf("stream incomplete: %+v", sr)
			}
			if sr.InOrderBytes != 1<<20 || sr.DeliveredBytes != 1<<20 {
				t.Fatalf("stream bytes %d/%d, want full %d", sr.InOrderBytes, sr.DeliveredBytes, 1<<20)
			}
			bound := 10.0
			if name == "redundant" {
				bound = 8
			}
			if rate := (1 << 20) * 8 / 1e6 / sr.CompletionSec; rate > bound*1.05 {
				t.Fatalf("data rate %.2f Mb/s above the %g Mb/s bound", rate, bound)
			}
			if rep.Flows[1].Stream != nil {
				t.Fatal("plain TCP flow grew a stream report")
			}
		})
	}
}

// TestSchedulerFlowCompileWiring: the compiled Flow exposes the stream and
// leaves the subflow senders unbounded (the stream owns FlowBytes).
func TestSchedulerFlowCompileWiring(t *testing.T) {
	n, err := Compile(schedStreamSpec("minrtt", 7))
	if err != nil {
		t.Fatal(err)
	}
	f := n.Flows[0]
	if f.Stream == nil || f.Conn == nil {
		t.Fatal("scheduler flow missing Stream or Conn handle")
	}
	if f.Stream.SchedulerName() != "minrtt" {
		t.Fatalf("stream scheduler %q", f.Stream.SchedulerName())
	}
	if f.Stream.TotalBytes() != 1<<20 {
		t.Fatalf("stream total %d", f.Stream.TotalBytes())
	}
	if n.Flows[1].Stream != nil {
		t.Fatal("tcp flow has a stream")
	}
}

// TestSchedulerFlowRerunIdentity: scheduler runs are byte-identical per
// (spec, seed), including under a mid-transfer path flap.
func TestSchedulerFlowRerunIdentity(t *testing.T) {
	for _, name := range mptcp.Schedulers() {
		sp := schedStreamSpec(name, 11)
		sp.Timeline = []TimelineEvent{
			{AtSec: 0.5, Path: &PathFlap{Path: 0}},
			{AtSec: 2.0, Path: &PathFlap{Path: 0, Up: true}},
		}
		r1, err := Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Digest() != r2.Digest() {
			t.Fatalf("%s: re-run diverged: %+v vs %+v", name, r1.Digest(), r2.Digest())
		}
		if len(r1.Violations) != 0 {
			t.Fatalf("%s: violations: %v", name, r1.Violations)
		}
		if sr := r1.Flows[0].Stream; !sr.Done {
			t.Fatalf("%s: flapped stream incomplete: %+v", name, sr)
		}
	}
}

// TestSchedulerFlowFlapDownForever is the scenario-level face of the
// headline bug: the timeline takes the fast path down mid-transfer and
// never restores it; the stream must still complete over the survivor.
func TestSchedulerFlowFlapDownForever(t *testing.T) {
	sp := schedStreamSpec("pull", 13)
	sp.DurationSec = 20
	sp.Timeline = []TimelineEvent{{AtSec: 0.5, Path: &PathFlap{Path: 0}}}
	rep, err := Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if sr := rep.Flows[0].Stream; !sr.Done {
		t.Fatalf("stream stalled on permanent flap: %+v", sr)
	}
}

// TestSchedulerEndgameLiveness pins the second stall class: a scheduler
// hold (here ECF waiting for the fast path's window) with no live span in
// flight leaves no future event to re-offer the data — sources request
// data at most once per stall. The pump's no-live-pending override must
// force a grant. This exact spec and seed deadlocked 80 KiB short of
// completion before the override existed.
func TestSchedulerEndgameLiveness(t *testing.T) {
	sp := schedStreamSpec("ecf", 8)
	sp.Flows[0].Algorithm = "lia"
	sp.Flows[0].FlowBytes = 2 << 20
	sp.Flows[1].StartJitter = true
	sp.DurationSec = 12
	rep, err := Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if sr := rep.Flows[0].Stream; !sr.Done {
		t.Fatalf("endgame hold deadlocked the stream: %+v", sr)
	}
}
