package scenario

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestCompileSharesPipesByDelay: a network has one pipe per distinct
// constant delay, carrying every link, reverse and access hop of that
// delay, and a link whose delay a timeline setpoint retargets keeps a pipe
// of its own.
func TestCompileSharesPipesByDelay(t *testing.T) {
	delays := func(pipes []*netem.Pipe) map[sim.Time]int {
		m := make(map[sim.Time]int)
		for _, p := range pipes {
			m[p.Delay()]++
		}
		return m
	}

	// Scenario A: zero-delay links, 40 ms access paths and a 40 ms reverse
	// link, so two pipes.
	a := mustCompile(t, PaperScenarioA(2, 2, 10, 10, "olia", 1, 1, 2))
	if got := delays(a.pipes); len(a.pipes) != 2 || got[0] != 1 || got[40*sim.Millisecond] != 1 || len(a.private) != 0 {
		t.Fatalf("scenario A: pipes by delay %v, %d private; want one of 0 and one of 40 ms", got, len(a.private))
	}
	if a.Links[0].Pipe != a.Links[1].Pipe || a.Rev.P == a.Links[0].Pipe || a.Rev.P.Delay() != 40*sim.Millisecond {
		t.Fatal("scenario A: the links do not share the 0 ms pipe, or the reverse link is not on the 40 ms one")
	}

	// A K=4 fat tree: every link has the same hop delay, no flow has an
	// access delay and every path its own reverse route, so one pipe
	// carries all 96 links and no shared return link is built.
	ft := mustCompile(t, PaperFatTree(FatTreeConfig{K: 4}, FatTreeLoad{Algorithm: "olia", Subflows: 4}, 1, 0, sim.Second))
	if len(ft.pipes) != 1 || len(ft.private) != 0 || ft.Rev != nil {
		t.Fatalf("fat tree: %d shared and %d private pipes, return link %v; want one shared pipe and no return link", len(ft.pipes), len(ft.private), ft.Rev)
	}
	for i, l := range ft.Links {
		if l.Pipe != ft.pipes[0] {
			t.Fatalf("fat tree link %d has a pipe of its own", i)
		}
	}

	// Two 10 ms links; a setpoint lowers link 0's delay, so link 0 gets a
	// private pipe and link 1 stays on the shared one. The run holds its
	// invariants across the change.
	sp := &Spec{
		Name: "retarget", Seed: 3, WarmupSec: 1, DurationSec: 3,
		Links: []LinkSpec{
			{RateMbps: 8, DelayMs: 10, Queue: QueueDropTail, BufferPkts: 100},
			{RateMbps: 8, DelayMs: 10, Queue: QueueDropTail, BufferPkts: 100},
		},
		Paths: []PathSpec{{Links: []int{0}, DelayMs: 10}, {Links: []int{1}, DelayMs: 10}},
		Flows: []FlowSpec{{Name: "mp", Algorithm: "olia", Paths: []int{0, 1}}},
		Timeline: []TimelineEvent{
			{AtSec: 1.5, Link: &LinkSetpoint{Link: 0, DelayMs: Float(2)}},
			{AtSec: 2, Link: &LinkSetpoint{Link: 1, RateMbps: 4}},
		},
	}
	n := mustCompile(t, sp)
	l0, l1 := n.Links[0].Pipe, n.Links[1].Pipe
	if len(n.private) != 1 || n.private[0] != l0 || l0 == l1 {
		t.Fatalf("retargeted link 0: %d private pipes, shares link 1's: %v", len(n.private), l0 == l1)
	}
	if len(n.pipes) != 2 || l1.Delay() != 10*sim.Millisecond || delays(n.pipes)[10*sim.Millisecond] != 1 {
		t.Fatalf("shared pipes by delay %v, want the 10 ms one (links, access) and the reverse link's", delays(n.pipes))
	}
	runClean(t, n)
	if l0.Delay() != 2*sim.Millisecond || l1.Delay() != 10*sim.Millisecond {
		t.Fatalf("after the run: link 0 at %v, link 1 at %v; want 2 ms and 10 ms", l0.Delay(), l1.Delay())
	}
}
