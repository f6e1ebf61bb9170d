package scenario

import (
	"context"
	"math"
	"testing"
)

// TestConformanceSuite is the cross-model acceptance gate: on every ≥3-path
// case, the packet-level per-path goodput shares of the OLIA, LIA and
// uncoupled multipath flow must match the fluid-model equilibrium within
// ShareTolerance. Run at the smoke scale (20 s windows); `make conform`
// runs the full 30 s suite.
func TestConformanceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance simulations skipped in -short")
	}
	rep, err := RunConformance(context.Background(), ConformanceOptions{DurationSec: 20}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(ConformanceCases()) {
		t.Fatalf("ran %d cases, want %d", len(rep.Results), len(ConformanceCases()))
	}
	for _, c := range rep.Results {
		if !c.Converged {
			t.Errorf("%s/%s: fluid equilibrium did not converge", c.Case.Name, c.Case.Algo)
		}
		if len(c.Violations) > 0 {
			t.Errorf("%s/%s: packet run violated invariants: %v", c.Case.Name, c.Case.Algo, c.Violations)
		}
		if c.MaxShareDiff > rep.Tolerance {
			t.Errorf("%s/%s: share deviation %.3f above tolerance %.2f (sim %v vs model %v)",
				c.Case.Name, c.Case.Algo, c.MaxShareDiff, rep.Tolerance, c.SimShares, c.ModelShares)
		}
		if !c.Pass {
			t.Errorf("%s/%s: case failed", c.Case.Name, c.Case.Algo)
		}
	}
	if rep.Failed() {
		t.Error("report marked failed")
	}
}

// TestConformanceSharesWellFormed checks structural sanity cheaply (short
// windows): shares are distributions and totals positive.
func TestConformanceSharesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance simulations skipped in -short")
	}
	res, err := runCase(context.Background(), ConformanceCases()[0], ConformanceOptions{DurationSec: 4}.fill())
	if err != nil {
		t.Fatal(err)
	}
	for _, shares := range [][]float64{res.SimShares, res.ModelShares} {
		var sum float64
		for _, s := range shares {
			if s < 0 || s > 1 {
				t.Fatalf("share %v outside [0,1]", shares)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("shares %v sum to %v", shares, sum)
		}
	}
	if res.SimTotalMbps <= 0 || res.ModelTotalMbps <= 0 {
		t.Fatalf("non-positive totals: %+v", res)
	}
}

// TestConformanceReportFailed: a report fails when any one case fails, and
// only then.
func TestConformanceReportFailed(t *testing.T) {
	rep := &ConformanceReport{Results: []ConformanceResult{{Pass: true}, {Pass: true}, {Pass: true}}}
	if rep.Failed() {
		t.Error("all cases pass, report failed")
	}
	rep.Results[1].Pass = false
	if !rep.Failed() {
		t.Error("one case fails, report passed")
	}
}
