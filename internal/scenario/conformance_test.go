package scenario

import (
	"context"
	"math"
	"testing"
)

// TestConformanceSuite is the cross-model acceptance gate: on every ≥3-path
// case, the packet-level per-path goodput shares of the OLIA, LIA and
// uncoupled multipath flow must match the fluid-model equilibrium within
// ShareTolerance, and the scenario-A packet run must match the Appendix-A
// LIA fixed point within NormTolerance. Run at the smoke scale (20 s
// windows); `make conform` runs the full 30 s suite.
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
	fp := rep.FixedPoint
	if !fp.Pass {
		t.Errorf("scenario-A fixed point: measured t1=%.3f t2=%.3f vs analytic t1=%.3f t2=%.3f (tolerance %.2f)",
			fp.MeasuredT1Norm, fp.MeasuredT2Norm, fp.AnalyticT1Norm, fp.AnalyticT2Norm, NormTolerance)
	}
	if rep.Failed() {
		t.Error("report marked failed")
	}
}

// TestConformanceSharesWellFormed checks structural sanity cheaply (short
// windows, one seed): shares are distributions and totals positive.
func TestConformanceSharesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance simulations skipped in -short")
	}
	res, err := runCase(context.Background(), ConformanceCases()[0], ConformanceOptions{DurationSec: 4, Seeds: 1}.fill())
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

// TestParseAlgoRejectsUnknown pins the fluid-dynamics name mapping used by
// the oracle.
func TestParseAlgoRejectsUnknown(t *testing.T) {
	for _, name := range []string{"olia", "lia", "uncoupled"} {
		if _, err := caseFluid(ConformanceCase{Algo: name, CapsMbps: []float64{1}, Background: []int{1}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := caseFluid(ConformanceCase{Algo: "fullycoupled", CapsMbps: []float64{1}, Background: []int{1}}); err == nil {
		t.Fatal("fullycoupled has no fluid dynamics and must be rejected")
	}
}
