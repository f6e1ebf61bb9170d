package mptcpsim

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// wrap buries err under n layers of fmt.Errorf("%w") wrapping, simulating
// callers that annotate as errors travel up their own stacks.
func wrap(err error, n int) error {
	for i := 0; i < n; i++ {
		err = fmt.Errorf("layer %d: %w", i, err)
	}
	return err
}

// TestSentinelMatrix checks errors.Is for every sentinel × construction ×
// wrap depth: each boundary error matches exactly its own sentinel, at any
// depth, and never a sibling.
func TestSentinelMatrix(t *testing.T) {
	sentinels := []error{ErrUnknownExperiment, ErrInvalidConfig, ErrInvalidSpec, ErrCanceled}
	names := []string{"ErrUnknownExperiment", "ErrInvalidConfig", "ErrInvalidSpec", "ErrCanceled"}
	cause := errors.New("root cause")

	for si, sentinel := range sentinels {
		for _, tc := range []struct {
			kind string
			err  error
		}{
			{"sentinel-only", apiErr("run", "exp", sentinel, nil)},
			{"sentinel+cause", apiErr("run", "exp", sentinel, cause)},
		} {
			for depth := 0; depth <= 3; depth++ {
				err := wrap(tc.err, depth)
				for sj, other := range sentinels {
					got := errors.Is(err, other)
					want := si == sj
					if got != want {
						t.Errorf("%s depth %d: errors.Is(err, %s) = %v, want %v",
							tc.kind, depth, names[sj], got, want)
					}
				}
				if tc.kind == "sentinel+cause" && !errors.Is(err, cause) {
					t.Errorf("%s depth %d: cause lost from the chain", tc.kind, depth)
				}
			}
		}
	}
}

// TestErrorAs checks that *Error is recoverable via errors.As from any
// wrap depth with Op and ID intact.
func TestErrorAs(t *testing.T) {
	base := apiErr("run", "twolink", ErrInvalidSpec, errors.New("negative rtt"))
	for depth := 0; depth <= 3; depth++ {
		err := wrap(base, depth)
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("depth %d: errors.As(*Error) failed", depth)
		}
		if e.Op != "run" || e.ID != "twolink" {
			t.Errorf("depth %d: got Op=%q ID=%q, want run/twolink", depth, e.Op, e.ID)
		}
	}
}

// TestErrorMessage pins the boundary rendering with and without an ID.
func TestErrorMessage(t *testing.T) {
	withID := apiErr("run", "olia-vs-lia", ErrUnknownExperiment, nil)
	if got, want := withID.Error(), "mptcpsim: run olia-vs-lia: unknown experiment"; got != want {
		t.Errorf("with ID: got %q, want %q", got, want)
	}
	noID := apiErr("collect", "", ErrInvalidConfig, errors.New("workers < 0"))
	if got, want := noID.Error(), "mptcpsim: collect: invalid configuration: workers < 0"; got != want {
		t.Errorf("without ID: got %q, want %q", got, want)
	}
}

// TestClassifyCancellation checks the documented double-match: a canceled
// run satisfies both errors.Is(err, ErrCanceled) and
// errors.Is(err, context.Canceled) — likewise for deadline expiry — while
// other causes pass through unclassified.
func TestClassifyCancellation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cause  error
		ctxErr error // also expected to match, when non-nil
	}{
		{"canceled", context.Canceled, context.Canceled},
		{"deadline", context.DeadlineExceeded, context.DeadlineExceeded},
		{"wrapped-canceled", fmt.Errorf("rpc: %w", context.Canceled), context.Canceled},
	} {
		err := classify("run-all", "", tc.cause)
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: not ErrCanceled", tc.name)
		}
		if !errors.Is(err, tc.ctxErr) {
			t.Errorf("%s: context error lost from the chain", tc.name)
		}
		var e *Error
		if !errors.As(err, &e) || e.Op != "run-all" {
			t.Errorf("%s: *Error envelope missing or wrong op", tc.name)
		}
	}

	plain := errors.New("disk full")
	err := classify("analyze", "x", plain)
	if errors.Is(err, ErrCanceled) {
		t.Error("unrelated cause misclassified as ErrCanceled")
	}
	if !errors.Is(err, plain) {
		t.Error("unrelated cause lost from the chain")
	}
	if classify("analyze", "x", nil) != nil {
		t.Error("classify(nil) must stay nil")
	}
}

// TestClassifyDistinctSentinels pins that cancellation does not bleed into
// the validation sentinels and vice versa.
func TestClassifyDistinctSentinels(t *testing.T) {
	err := classify("run", "exp", context.Canceled)
	for _, other := range []error{ErrUnknownExperiment, ErrInvalidConfig, ErrInvalidSpec} {
		if errors.Is(err, other) {
			t.Errorf("canceled run matches %v", other)
		}
	}
	if errors.Is(apiErr("run", "exp", ErrInvalidSpec, nil), context.Canceled) {
		t.Error("validation error matches context.Canceled")
	}
}
