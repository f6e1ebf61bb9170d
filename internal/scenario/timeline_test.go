package scenario

import (
	"context"
	"strings"
	"testing"
)

// timelineSpec is a single-link DropTail scenario for timeline semantics
// tests. DropTail with an explicit buffer keeps the build configuration
// independent of the link rate, so a t=0 rate setpoint and a static rate
// can be compared exactly.
func timelineSpec() *Spec {
	return &Spec{
		Name: "tl", Seed: 11, WarmupSec: 1, DurationSec: 3,
		Links: []LinkSpec{{RateMbps: 8, DelayMs: 10, Queue: QueueDropTail, BufferPkts: 100}},
		Paths: []PathSpec{{Links: []int{0}, DelayMs: 20}},
		Flows: []FlowSpec{{Name: "f", Algorithm: AlgoTCP, Paths: []int{0}}},
	}
}

func mustCompile(t *testing.T, sp *Spec) *Net {
	t.Helper()
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustRun(t *testing.T, sp *Spec) *RunReport {
	t.Helper()
	return runClean(t, mustCompile(t, sp))
}

// Float points at v, for the optional setpoint fields in literals.
func Float(v float64) *float64 { return &v }

// TestTimelineValidate locks every timeline structural check with its
// message, in the TestSpecValidate style.
func TestTimelineValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // empty means valid
	}{
		{"valid setpoint", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, RateMbps: 1}}}
		}, ""},
		{"valid flap", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{
				{AtSec: 1, Path: &PathFlap{Path: 1}},
				{AtSec: 2, Path: &PathFlap{Path: 1, Up: true}},
			}
		}, ""},
		{"valid full blackhole", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, LossPct: Float(100)}}}
		}, ""},
		{"valid rate trace", func(sp *Spec) {
			sp.Timeline = RateTrace(1, 0.5, 0.5, 2, 1, 0.5)
		}, ""},
		{"valid equal times", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{
				{AtSec: 1, Link: &LinkSetpoint{Link: 0, RateMbps: 1}},
				{AtSec: 1, Link: &LinkSetpoint{Link: 1, DelayMs: Float(0)}},
			}
		}, ""},
		{"negative time", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: -1, Link: &LinkSetpoint{Link: 0, RateMbps: 1}}}
		}, "negative time"},
		{"decreasing times", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{
				{AtSec: 2, Link: &LinkSetpoint{Link: 0, RateMbps: 1}},
				{AtSec: 1, Link: &LinkSetpoint{Link: 0, RateMbps: 2}},
			}
		}, "non-decreasing"},
		{"neither link nor path", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1}}
		}, "exactly one"},
		{"both link and path", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1,
				Link: &LinkSetpoint{Link: 0, RateMbps: 1}, Path: &PathFlap{Path: 0}}}
		}, "exactly one"},
		{"bad link index", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 2, RateMbps: 1}}}
		}, "references link 2"},
		{"negative rate", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, RateMbps: -1}}}
		}, "negative rate"},
		{"negative delay", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, DelayMs: Float(-1)}}}
		}, "negative delay"},
		{"loss above 100", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, LossPct: Float(100.5)}}}
		}, "outside [0, 100]"},
		{"changes nothing", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0}}}
		}, "changes nothing"},
		{"bad path index", func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Path: &PathFlap{Path: 7}}}
		}, "references path 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := twoPathSpec()
			tc.mutate(sp)
			err := sp.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSetpointAtZeroMatchesStaticRate: a t=0 rate setpoint must behave
// exactly like building the link at that rate — the driver is armed before
// any flow-start event. The only difference is the one kernel event the
// driver itself consumes.
func TestSetpointAtZeroMatchesStaticRate(t *testing.T) {
	dynamic := timelineSpec()
	dynamic.Timeline = []TimelineEvent{{AtSec: 0, Link: &LinkSetpoint{Link: 0, RateMbps: 2}}}
	static := timelineSpec()
	static.Links[0].RateMbps = 2

	dr, sr := mustRun(t, dynamic), mustRun(t, static)
	if dr.Flows[0].GoodputBytes != sr.Flows[0].GoodputBytes {
		t.Fatalf("t=0 setpoint delivered %d bytes, static rate %d",
			dr.Flows[0].GoodputBytes, sr.Flows[0].GoodputBytes)
	}
	if dr.Queues[0].Total != sr.Queues[0].Total {
		t.Fatalf("queue counters diverge:\n%+v\n%+v", dr.Queues[0].Total, sr.Queues[0].Total)
	}
	if dr.Processed != sr.Processed+1 {
		t.Fatalf("processed %d events, want static %d plus exactly one driver firing",
			dr.Processed, sr.Processed)
	}
}

// TestRateDropReducesGoodput: halving the bottleneck mid-window must cost
// goodput, and the capacity invariant must hold against the time-varying
// bound rather than flagging the pre-drop throughput.
func TestRateDropReducesGoodput(t *testing.T) {
	base := mustRun(t, timelineSpec())
	sp := timelineSpec()
	sp.Timeline = []TimelineEvent{{AtSec: 2, Link: &LinkSetpoint{Link: 0, RateMbps: 1}}}
	slow := mustRun(t, sp)
	if slow.Flows[0].GoodputMbps >= base.Flows[0].GoodputMbps*0.8 {
		t.Fatalf("rate drop to 1 Mb/s left goodput at %.2f Mb/s (static: %.2f)",
			slow.Flows[0].GoodputMbps, base.Flows[0].GoodputMbps)
	}
	if slow.Flows[0].GoodputMbps <= 0 {
		t.Fatal("flow died after the rate drop")
	}
}

// TestDelayIncreaseSlowsFlow: jumping the propagation delay mid-run must
// stretch the control loop and cost goodput, without breaking ordering or
// conservation (SetDelay clamps in-flight arrivals).
func TestDelayIncreaseSlowsFlow(t *testing.T) {
	base := mustRun(t, timelineSpec())
	sp := timelineSpec()
	sp.Timeline = []TimelineEvent{{AtSec: 1.5, Link: &LinkSetpoint{Link: 0, DelayMs: Float(100)}}}
	slow := mustRun(t, sp)
	if slow.Flows[0].GoodputMbps >= base.Flows[0].GoodputMbps {
		t.Fatalf("10x delay left goodput at %.2f Mb/s (static: %.2f)",
			slow.Flows[0].GoodputMbps, base.Flows[0].GoodputMbps)
	}
}

// TestLossBlackholeAndRestore: loss to 100% black-holes the link; restoring
// it lets the flow recover. Left at 100%, the flow stays dead.
func TestLossBlackholeAndRestore(t *testing.T) {
	restored := timelineSpec()
	restored.Timeline = []TimelineEvent{
		{AtSec: 1.5, Link: &LinkSetpoint{Link: 0, LossPct: Float(100)}},
		{AtSec: 2.0, Link: &LinkSetpoint{Link: 0, LossPct: Float(0)}},
	}
	rr := mustRun(t, restored)
	if rr.Queues[0].LossDropped == 0 {
		t.Fatal("100% loss dropped nothing")
	}
	if rr.Flows[0].GoodputMbps <= 0 {
		t.Fatal("flow never recovered after loss was cleared")
	}

	dead := timelineSpec()
	dead.Timeline = []TimelineEvent{
		{AtSec: 1.5, Link: &LinkSetpoint{Link: 0, LossPct: Float(100)}},
	}
	dr := mustRun(t, dead)
	if dr.Flows[0].GoodputMbps >= rr.Flows[0].GoodputMbps {
		t.Fatalf("permanent blackhole goodput %.2f not below restored %.2f",
			dr.Flows[0].GoodputMbps, rr.Flows[0].GoodputMbps)
	}
}

// TestPathFlapDownFromStart: a path taken down at t=0 must carry nothing —
// flows on it freeze before their start events fire — while the other path
// keeps working, and every invariant holds with the flows frozen.
func TestPathFlapDownFromStart(t *testing.T) {
	sp := twoPathSpec()
	sp.Timeline = []TimelineEvent{{AtSec: 0, Path: &PathFlap{Path: 1}}}
	rep := mustRun(t, sp)
	mp := rep.Flows[0]
	if mp.PathMbps[1] != 0 {
		t.Fatalf("mp delivered %.2f Mb/s on the downed path", mp.PathMbps[1])
	}
	if mp.PathMbps[0] <= 0 {
		t.Fatal("mp idle on the surviving path")
	}
	for _, f := range rep.Flows[1:] {
		if f.GoodputMbps != 0 || f.SentPkts != 0 {
			t.Fatalf("background flow %s active on the downed path: %.2f Mb/s, %d pkts",
				f.Name, f.GoodputMbps, f.SentPkts)
		}
	}
}

// TestPathFlapOutageAndRecovery: down at 1s, up at 2s. The flapped path
// must deliver less than in the unflapped run but recover to nonzero, with
// no invariant violations and no RTO storm during the outage.
func TestPathFlapOutageAndRecovery(t *testing.T) {
	base := mustRun(t, twoPathSpec())
	sp := twoPathSpec()
	sp.Timeline = []TimelineEvent{
		{AtSec: 1, Path: &PathFlap{Path: 1}},
		{AtSec: 2, Path: &PathFlap{Path: 1, Up: true}},
	}
	rep := mustRun(t, sp)
	baseP1 := base.Flows[0].PathMbps[1]
	flapP1 := rep.Flows[0].PathMbps[1]
	if flapP1 >= baseP1 {
		t.Fatalf("flapped path delivered %.2f Mb/s, unflapped %.2f", flapP1, baseP1)
	}
	if flapP1 <= 0 {
		t.Fatal("flapped path never recovered after coming back up")
	}
	var tmo int64
	for _, f := range rep.Flows {
		tmo += f.Timeouts
	}
	if tmo > 10 {
		t.Fatalf("flap triggered an RTO storm: %d timeouts", tmo)
	}
}

// TestTimelineEventAtEndOfRun: an event at exactly Warmup+Duration still
// fires (RunUntil is inclusive of the end instant) and a run with it
// processes exactly one extra event.
func TestTimelineEventAtEndOfRun(t *testing.T) {
	base := mustRun(t, timelineSpec())
	sp := timelineSpec()
	sp.Timeline = []TimelineEvent{
		{AtSec: sp.WarmupSec + sp.DurationSec, Link: &LinkSetpoint{Link: 0, RateMbps: 1}},
	}
	rep := mustRun(t, sp)
	if rep.Processed != base.Processed+1 {
		t.Fatalf("end-of-run event: processed %d, want %d+1", rep.Processed, base.Processed)
	}
	if rep.Flows[0].GoodputBytes != base.Flows[0].GoodputBytes {
		t.Fatal("an event at the final instant changed delivered bytes")
	}
}

// TestTimelineRerunIdentity: a spec exercising every mutation kind must
// reproduce byte-identically across runs.
func TestTimelineRerunIdentity(t *testing.T) {
	mk := func() *Spec {
		sp := twoPathSpec()
		sp.Flows[1].StartJitter = true // consume the RNG stream too
		sp.Timeline = []TimelineEvent{
			{AtSec: 0.5, Link: &LinkSetpoint{Link: 0, RateMbps: 2}},
			{AtSec: 1.0, Path: &PathFlap{Path: 1}},
			{AtSec: 1.2, Link: &LinkSetpoint{Link: 1, LossPct: Float(30)}},
			{AtSec: 1.8, Path: &PathFlap{Path: 1, Up: true}},
			{AtSec: 2.0, Link: &LinkSetpoint{Link: 1, LossPct: Float(0), DelayMs: Float(80)}},
			{AtSec: 2.5, Link: &LinkSetpoint{Link: 0, RateMbps: 6, DelayMs: Float(5)}},
		}
		return sp
	}
	a, err := Run(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same timeline spec, different runs:\n%+v\n%+v", a.Digest(), b.Digest())
	}
	if len(a.Violations) != 0 {
		t.Fatalf("invariant violations through transitions: %v", a.Violations)
	}
}

// TestWindowCapBytes locks the piecewise capacity integration used by the
// capacity invariant.
func TestWindowCapBytes(t *testing.T) {
	sp := timelineSpec() // warmup 1s, duration 3s, link 0 at 8 Mb/s
	sp.Timeline = []TimelineEvent{
		{AtSec: 0.5, Link: &LinkSetpoint{Link: 0, RateMbps: 4}},       // before window: replaces base rate
		{AtSec: 2.0, Link: &LinkSetpoint{Link: 0, RateMbps: 2}},       // in window
		{AtSec: 3.0, Link: &LinkSetpoint{Link: 0, DelayMs: Float(5)}}, // no rate change: ignored
		{AtSec: 9.0, Link: &LinkSetpoint{Link: 0, RateMbps: 16}},      // past window end: ignored
	}
	capBytes, transitions := mustCompile(t, sp).windowCapBytes(0)
	// 4 Mb/s over [1,2] plus 2 Mb/s over [2,4]: 0.5e6 + 0.5e6 bytes.
	if want := 1e6; capBytes != want {
		t.Fatalf("windowCapBytes = %.0f, want %.0f", capBytes, want)
	}
	if transitions != 1 {
		t.Fatalf("transitions = %d, want 1", transitions)
	}

	// No timeline: plain rate * duration.
	capBytes, transitions = mustCompile(t, timelineSpec()).windowCapBytes(0)
	if want := 8e6 / 8 * 3; capBytes != want || transitions != 0 {
		t.Fatalf("static windowCapBytes = %.0f (%d transitions), want %.0f (0)", capBytes, transitions, want)
	}
}

// TestRateTrace locks the trace expansion helper.
func TestRateTrace(t *testing.T) {
	evs := RateTrace(1, 1, 0.5, 8, 4, 2)
	if len(evs) != 3 {
		t.Fatalf("RateTrace emitted %d events, want 3", len(evs))
	}
	wantAt := []float64{1, 1.5, 2}
	wantRate := []float64{8, 4, 2}
	for i, ev := range evs {
		if ev.AtSec != wantAt[i] || ev.Link == nil || ev.Link.Link != 1 || ev.Link.RateMbps != wantRate[i] {
			t.Fatalf("event %d = %+v, want link 1 rate %g at %gs", i, ev, wantRate[i], wantAt[i])
		}
	}
	sp := twoPathSpec()
	sp.Timeline = evs
	if err := sp.Validate(); err != nil {
		t.Fatalf("RateTrace output failed validation: %v", err)
	}
}
