package mptcpsim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mptcpsim/internal/runner"
)

// TestWatchdogExpires: an exhausted WithWatchdog budget abandons the run
// with the typed ErrWatchdog error — matchable distinctly from ErrCanceled
// while still exposing context.DeadlineExceeded through the chain.
func TestWatchdogExpires(t *testing.T) {
	lab := NewLab(WithWatchdog(time.Nanosecond))
	_, err := lab.Run(context.Background(), validSpec())
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("Run under 1ns watchdog: err = %v, want ErrWatchdog", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("watchdog error hides the deadline cause: %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("watchdog expiry misclassified as cancellation: %v", err)
	}
	var apiError *Error
	if !errors.As(err, &apiError) || apiError.Op != "run" {
		t.Fatalf("watchdog error not a boundary *Error: %#v", err)
	}
}

// TestWatchdogHarmlessWhenGenerous: a run that finishes within the budget
// must be byte-identical to one without a watchdog (the probe slices at
// exact virtual-time boundaries).
func TestWatchdogHarmlessWhenGenerous(t *testing.T) {
	plain, err := NewLab().Run(context.Background(), validSpec())
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := NewLab(WithWatchdog(time.Minute)).Run(context.Background(), validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, guarded) {
		t.Fatalf("watchdog perturbed the run:\n%+v\n%+v", plain, guarded)
	}
	// A caller-cancelled context under a watchdog still reports ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewLab(WithWatchdog(time.Minute)).Run(ctx, validSpec())
	if !errors.Is(err, ErrCanceled) || errors.Is(err, ErrWatchdog) {
		t.Fatalf("pre-cancelled ctx under watchdog: err = %v, want ErrCanceled only", err)
	}
}

// TestErrJobPanicMatchesThroughBoundary: the root sentinel matches a
// recovered job panic through the *Error boundary wrapping, with the
// concrete *runner.PanicError still reachable via errors.As.
func TestErrJobPanicMatchesThroughBoundary(t *testing.T) {
	cause := &runner.PanicError{Job: 3, Value: "boom", Stack: []byte("stack")}
	err := classify("collect", "fig9", cause)
	if !errors.Is(err, ErrJobPanic) {
		t.Fatalf("boundary error does not match ErrJobPanic: %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("panic misclassified as cancellation: %v", err)
	}
	var pe *runner.PanicError
	if !errors.As(err, &pe) || pe.Job != 3 {
		t.Fatalf("concrete PanicError unreachable: %#v", err)
	}
	var apiError *Error
	if !errors.As(err, &apiError) || apiError.ID != "fig9" {
		t.Fatalf("boundary metadata lost: %#v", err)
	}
}

// TestTimelineThroughFacade drives the fault-injection layer through the
// public aliases: a spec built with TimelineEvent/LinkSetpoint/PathFlap,
// Float and RateTrace runs clean under Lab.Run.
func TestTimelineThroughFacade(t *testing.T) {
	sp := validSpec()
	sp.Timeline = append(
		RateTrace(0, 0.3, 0.3, 4, 1),
		TimelineEvent{AtSec: 0.9, Link: &LinkSetpoint{Link: 0, LossPct: Float(100)}},
		TimelineEvent{AtSec: 1.0, Link: &LinkSetpoint{Link: 0, LossPct: Float(0), DelayMs: Float(5)}},
		TimelineEvent{AtSec: 1.05, Path: &PathFlap{Path: 0}},
		TimelineEvent{AtSec: 1.1, Path: &PathFlap{Path: 0, Up: true}},
	)
	rep, err := NewLab().Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("timeline run violated invariants: %v", rep.Violations)
	}
	// A malformed timeline is rejected as an invalid spec.
	sp.Timeline[0].AtSec = -1
	if _, err := NewLab().Run(context.Background(), sp); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("negative-time timeline: err = %v, want ErrInvalidSpec", err)
	}
}

// TestGenFuzzSpec pins the replay contract: FuzzCampaign rebuilds exactly
// the spec the fuzzer ran, it validates, and it carries a timeline.
func TestGenFuzzSpec(t *testing.T) {
	fz := FuzzCampaign()
	a, b := fz.SampleSpec(17), FuzzCampaign().SampleSpec(17)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FuzzCampaign sampling not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	if len(a.Timeline) == 0 {
		t.Fatal("fuzz specs must carry a fault timeline by default")
	}
	if reflect.DeepEqual(a, fz.SampleSpec(18)) {
		t.Fatal("different indices produced identical specs")
	}
}
