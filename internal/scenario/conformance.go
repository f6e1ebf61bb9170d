// Differential conformance: the packet-level simulator against the paper's
// analytic machinery. Each case is one scenario Spec, run packet by packet
// and compiled by Fluid to the §V fluid model solved to equilibrium, and
// the two are compared on the multipath user's steady-state per-path
// goodput shares. Agreement within ShareTolerance on topologies the
// hardcoded harness never exercised (3 and 4 paths, heterogeneous
// capacities and competition) is the cross-model evidence that the
// simulator and the fluid model describe the same system.
package scenario

import (
	"context"
	"fmt"
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/runner"
)

// ShareTolerance is the documented agreement bound: every per-path
// goodput-share of the multipath flow must match the fluid-model
// equilibrium share within this absolute tolerance (shares live in [0,1]).
// The slack covers what genuinely separates the two descriptions: the
// fluid model's smooth loss curve versus RED's sampled EWMA drops, finite
// averaging windows, and the 1-MSS-per-RTT probing floor of a window-based
// implementation.
const ShareTolerance = 0.10

// ConformanceCase is one topology × algorithm comparison: a multipath flow
// over CapsMbps[i]-capacity RED paths, each shared with Background[i]
// single-path TCP flows.
type ConformanceCase struct {
	Name       string    `json:"name"`
	Algo       string    `json:"algo"`
	CapsMbps   []float64 `json:"caps_mbps"`
	Background []int     `json:"background"`
}

// conformanceTopos are the shapes compared for every algorithm — all
// beyond the two-path scenarios the paper (and the experiment registry)
// hardcodes. Per-path fair shares are kept pairwise distinct on purpose:
// with ties, Theorem 1 makes the coupled controllers' per-path split
// non-unique (any distribution over the tied best paths is an
// equilibrium), and comparing one selected equilibrium against another is
// ill-posed.
var conformanceTopos = []struct {
	name string
	caps []float64
	bg   []int
}{
	{"tier3", []float64{2, 4, 8}, []int{3, 2, 1}},
	{"asym3", []float64{2, 4, 8}, []int{2, 2, 2}},
	{"steep4", []float64{1.5, 3, 5, 12}, []int{1, 2, 2, 2}},
}

// conformanceAlgos are the coupled controllers with fluid dynamics.
var conformanceAlgos = []string{"olia", "lia", "uncoupled"}

// ConformanceCases enumerates every topology × algorithm pair.
func ConformanceCases() []ConformanceCase {
	var out []ConformanceCase
	for _, tp := range conformanceTopos {
		for _, algo := range conformanceAlgos {
			out = append(out, ConformanceCase{
				Name: tp.name, Algo: algo, CapsMbps: tp.caps, Background: tp.bg,
			})
		}
	}
	return out
}

// ConformanceResult is one case's comparison.
type ConformanceResult struct {
	Case ConformanceCase `json:"case"`
	// SimShares and ModelShares are the multipath flow's per-path goodput
	// fractions: measured packet-level vs fluid equilibrium.
	SimShares   []float64 `json:"sim_shares"`
	ModelShares []float64 `json:"model_shares"`
	// MaxShareDiff is the largest absolute per-path share deviation.
	MaxShareDiff float64 `json:"max_share_diff"`
	// SimTotalMbps and ModelTotalMbps are the flow's aggregate rates
	// (informational; the pass criterion is the share vector).
	SimTotalMbps   float64 `json:"sim_total_mbps"`
	ModelTotalMbps float64 `json:"model_total_mbps"`
	// Converged reports fluid-equilibrium convergence.
	Converged bool `json:"converged"`
	// Violations carries any invariant failures from the packet run.
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// ConformanceReport is the whole suite's outcome.
type ConformanceReport struct {
	Tolerance float64             `json:"tolerance"`
	Results   []ConformanceResult `json:"results"`
}

// Failed reports whether any case missed its tolerance.
func (r *ConformanceReport) Failed() bool {
	for _, c := range r.Results {
		if !c.Pass {
			return true
		}
	}
	return false
}

// ConformanceOptions scales the suite.
type ConformanceOptions struct {
	// DurationSec is the measured window per packet run (0 selects 30; the
	// CI smoke setting uses 20).
	DurationSec float64
}

// conformanceSeeds is the number of packet runs averaged per case.
// Coupled controllers wander between near-equivalent splits on packet
// timescales; seed averaging estimates the steady-state mean the fluid
// equilibrium describes.
const conformanceSeeds = 3

// caseWarmupSec is the warm-up each packet run spends before its measured
// window.
const caseWarmupSec = 5

// Validate rejects a negative or NaN window, and one that with the warm-up
// is longer than a scenario can hold (MaxSpecSec).
func (o ConformanceOptions) Validate() error {
	if !(o.DurationSec >= 0 && o.DurationSec <= MaxSpecSec-caseWarmupSec) {
		return fmt.Errorf("scenario: conformance window %g s not in [0, %g] s", o.DurationSec, MaxSpecSec-caseWarmupSec)
	}
	return nil
}

func (o ConformanceOptions) fill() ConformanceOptions {
	if o.DurationSec == 0 {
		o.DurationSec = 30
	}
	return o
}

// caseSpec builds the packet-level scenario of one conformance case: path
// i is one RED link of CapsMbps[i], 40 ms one-way delay, carrying the
// multipath flow's subflow i plus Background[i] plain TCP flows.
func caseSpec(c ConformanceCase, durationSec float64, seed int64) *Spec {
	sp := &Spec{
		Name:        fmt.Sprintf("conform-%s-%s", c.Name, c.Algo),
		Seed:        seed,
		WarmupSec:   caseWarmupSec,
		DurationSec: durationSec,
	}
	mp := FlowSpec{Name: "mp", Algorithm: c.Algo}
	for i, cap := range c.CapsMbps {
		sp.Links = append(sp.Links, LinkSpec{RateMbps: cap})
		sp.Paths = append(sp.Paths, PathSpec{Links: []int{i}, DelayMs: 40})
		mp.Paths = append(mp.Paths, i)
	}
	sp.Flows = append(sp.Flows, mp)
	for i, nBG := range c.Background {
		sp.Flows = append(sp.Flows, FlowSpec{
			Name:      fmt.Sprintf("bg%d", i),
			Algorithm: AlgoTCP,
			Paths:     []int{i},
			Count:     nBG,
			// Stagger background starts deterministically behind the
			// multipath flow.
			StartSec: 0.1 * float64(i+1),
		})
	}
	return sp
}

// runCase executes one comparison: seed-averaged packet runs against the
// fluid equilibrium.
func runCase(ctx context.Context, c ConformanceCase, opts ConformanceOptions) (ConformanceResult, error) {
	res := ConformanceResult{Case: c}
	perPath := make([]float64, len(c.CapsMbps))
	for seed := int64(1); seed <= conformanceSeeds; seed++ {
		rep, err := Run(ctx, caseSpec(c, opts.DurationSec, seed))
		if err != nil {
			return res, err
		}
		res.Violations = append(res.Violations, rep.Violations...)
		mp := rep.Flows[0]
		res.SimTotalMbps += mp.GoodputMbps / conformanceSeeds
		for i, v := range mp.PathMbps {
			perPath[i] += v / conformanceSeeds
		}
	}
	for _, v := range perPath {
		share := 0.0
		if res.SimTotalMbps > 0 {
			share = v / res.SimTotalMbps
		}
		res.SimShares = append(res.SimShares, share)
	}

	model, err := Fluid(caseSpec(c, opts.DurationSec, 1))
	if err != nil {
		return res, err
	}
	x, ok := model.Equilibrium()
	res.Converged = ok
	res.ModelShares = model.UserShares(x, 0)
	res.ModelTotalMbps = model.UserRate(x, 0) * 8 * netem.MSS / 1e6
	for i := range res.SimShares {
		if d := math.Abs(res.SimShares[i] - res.ModelShares[i]); d > res.MaxShareDiff {
			res.MaxShareDiff = d
		}
	}
	res.Pass = ok && len(res.Violations) == 0 && res.MaxShareDiff <= ShareTolerance
	return res, nil
}

// RunConformance runs every conformance case (opts must pass Validate).
// Cases are independent simulations and run concurrently on workers
// workers (<= 0 selects GOMAXPROCS) in one runner.Stream; results are
// folded into the report in case order as they arrive. progress, when
// non-nil, receives the cumulative (done, total) case counts — (0, total)
// first, then one call per case folded — on the goroutine that called
// RunConformance.
//
// Cancelling ctx stops unstarted cases at the next job boundary (running
// cases abandon their packet runs at a one-second virtual-time boundary)
// and returns an error wrapping ctx.Err(). The first case to fail, in case
// order, is the error returned.
func RunConformance(ctx context.Context, opts ConformanceOptions, workers int, progress func(done, total int)) (*ConformanceReport, error) {
	opts = opts.fill()
	cases := ConformanceCases()
	rep := &ConformanceReport{Tolerance: ShareTolerance}
	type outcome struct {
		res ConformanceResult
		err error
	}
	total := len(cases)
	if progress == nil {
		progress = func(int, int) {}
	}
	progress(0, total)
	var failed error
	err := runner.Stream(ctx, runner.New(workers), total, func(i int) outcome {
		res, err := runCase(ctx, cases[i], opts)
		return outcome{res, err}
	}, func(i int, out outcome) {
		progress(i+1, total)
		switch {
		case failed != nil:
		case out.err != nil:
			failed = fmt.Errorf("scenario: conformance case %s/%s: %w", cases[i].Name, cases[i].Algo, out.err)
		default:
			rep.Results = append(rep.Results, out.res)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: conformance suite canceled: %w", err)
	}
	if failed != nil {
		return nil, failed
	}
	return rep, nil
}
