package mptcpsim

import (
	"context"
	"errors"
	"fmt"

	"mptcpsim/internal/runner"
)

// The Lab API's typed error family. Every error returned by a Lab method
// is an *Error wrapping exactly one of these sentinels plus the underlying
// cause, so callers match programmatically instead of parsing messages:
//
//	if errors.Is(err, mptcpsim.ErrUnknownExperiment) { ... }
//	var e *mptcpsim.Error
//	if errors.As(err, &e) { log.Printf("op %s on %q failed", e.Op, e.ID) }
//
// Cancellation additionally wraps the context error, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) hold.
var (
	// ErrUnknownExperiment marks an experiment ID absent from the registry.
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrInvalidConfig marks a rejected Config, worker count or format.
	ErrInvalidConfig = errors.New("invalid configuration")
	// ErrInvalidSpec marks a rejected scenario or campaign spec, or
	// analysis input.
	ErrInvalidSpec = errors.New("invalid specification")
	// ErrCanceled marks a run abandoned because its context was cancelled
	// (it wraps the ctx.Err(), so context.Canceled/DeadlineExceeded still
	// match through it).
	ErrCanceled = errors.New("run canceled")
	// ErrJobPanic marks a collection in which a simulation job panicked.
	// The panic is recovered inside the worker pool — sibling jobs and
	// experiments complete normally — and the cause chain carries a
	// *runner.PanicError with the crashed job's index, panic value and
	// stack.
	ErrJobPanic = runner.ErrJobPanic
	// ErrWatchdog marks a Lab.Run abandoned because it exceeded the
	// wall-clock budget set with WithWatchdog. It also matches
	// context.DeadlineExceeded through the cause chain.
	ErrWatchdog = errors.New("watchdog expired")
)

// Error is the concrete error type of the Lab API boundary.
type Error struct {
	// Op names the Lab method that failed: "collect", "run-all", "run",
	// "campaign", or "analyze".
	Op string
	// ID is the experiment ID or scenario name involved, when there is one.
	ID string
	// Err is the cause chain: one of the sentinel errors above, wrapping
	// the underlying harness/scenario/context error.
	Err error
}

// Error renders "mptcpsim: <op> <id>: <cause>".
func (e *Error) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("mptcpsim: %s %s: %v", e.Op, e.ID, e.Err)
	}
	return fmt.Sprintf("mptcpsim: %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause chain to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// apiErr builds the boundary error: sentinel classifies, cause explains.
// Either may be nil (but not both).
func apiErr(op, id string, sentinel, cause error) error {
	err := cause
	switch {
	case sentinel == nil:
	case cause == nil:
		err = sentinel
	default:
		err = fmt.Errorf("%w: %w", sentinel, cause)
	}
	return &Error{Op: op, ID: id, Err: err}
}

// classify wraps an error escaping a context-aware call: cancellation gets
// the ErrCanceled sentinel, anything else passes through unclassified
// (validation errors are caught before the call and tagged precisely).
func classify(op, id string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return apiErr(op, id, ErrCanceled, err)
	}
	return apiErr(op, id, nil, err)
}
