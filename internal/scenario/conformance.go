// Differential conformance: the packet-level simulator against the paper's
// analytic machinery. Each case builds one topology twice — as a scenario
// Spec run packet by packet, and as a fluid.Network solved to equilibrium —
// and compares the multipath user's steady-state per-path goodput shares.
// A scenario-A case additionally checks the measured allocation against the
// Appendix-A fixed point. Agreement within ShareTolerance on topologies the
// hardcoded harness never exercised (3 and 4 paths, heterogeneous
// capacities and competition) is the cross-model evidence that the
// simulator, the fluid model and the fixed points describe the same system.
package scenario

import (
	"context"
	"fmt"
	"math"

	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/fluid"
	"mptcpsim/internal/mptcp"
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

// NormTolerance bounds the scenario-A fixed-point check: measured
// normalized throughputs against the Appendix-A LIA fixed point.
const NormTolerance = 0.15

// fluidRTT is the effective round-trip time used for every fluid route:
// the 80 ms propagation RTT plus RED queueing delay, which the paper
// measures at ≈150 ms total (§III). RED thresholds scale with link rate,
// so the queueing delay — packets × serialization time — is the same on
// every path regardless of capacity.
const fluidRTT = 0.15

// fluid loss-curve shape: P0 is the drop probability at exactly full load
// and Sharpness how fast it rises beyond — the "sharp around capacity"
// regime of the paper's Remark 1, mirroring RED pushed past its
// thresholds.
const (
	fluidP0        = 0.02
	fluidSharpness = 12
)

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

// FixedPointCheck is the scenario-A cross-check outcome.
type FixedPointCheck struct {
	MeasuredT1Norm float64 `json:"measured_t1_norm"`
	MeasuredT2Norm float64 `json:"measured_t2_norm"`
	AnalyticT1Norm float64 `json:"analytic_t1_norm"`
	AnalyticT2Norm float64 `json:"analytic_t2_norm"`
	Pass           bool    `json:"pass"`
}

// SchedulerCheck is one subflow-scheduler capacity conformance outcome: a
// finite stream over heterogeneous paths must complete, and its data-level
// rate must respect the policy's physical bound — best single path for
// redundant (every byte rides every path), aggregate capacity otherwise.
type SchedulerCheck struct {
	Scheduler string `json:"scheduler"`
	// Done reports in-window completion; CompletionSec and RateMbps are the
	// transfer duration and data-level rate (FlowBytes over completion).
	Done          bool    `json:"done"`
	CompletionSec float64 `json:"completion_sec,omitempty"`
	RateMbps      float64 `json:"rate_mbps,omitempty"`
	// BoundMbps is the capacity ceiling the rate is checked against.
	BoundMbps  float64  `json:"bound_mbps"`
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// ConformanceReport is the whole suite's outcome.
type ConformanceReport struct {
	Tolerance  float64             `json:"tolerance"`
	Results    []ConformanceResult `json:"results"`
	FixedPoint FixedPointCheck     `json:"fixed_point"`
	Schedulers []SchedulerCheck    `json:"schedulers"`
}

// Failed reports whether any case missed its tolerance.
func (r *ConformanceReport) Failed() bool {
	for _, c := range r.Results {
		if !c.Pass {
			return true
		}
	}
	for _, s := range r.Schedulers {
		if !s.Pass {
			return true
		}
	}
	return !r.FixedPoint.Pass
}

// ConformanceOptions scales the suite.
type ConformanceOptions struct {
	// DurationSec is the measured window per packet run (0 selects 30; the
	// CI smoke setting uses 20).
	DurationSec float64
	// Seeds is the number of packet runs averaged per case (0 selects 3).
	// Coupled controllers wander between near-equivalent splits on packet
	// timescales; seed averaging estimates the steady-state mean the fluid
	// equilibrium describes.
	Seeds int
}

// Validate rejects a negative or non-finite window and a negative seed
// count.
func (o ConformanceOptions) Validate() error {
	if !(o.DurationSec >= 0 && o.DurationSec < math.Inf(1)) {
		return fmt.Errorf("scenario: conformance window %g s not a non-negative finite number", o.DurationSec)
	}
	if o.Seeds < 0 {
		return fmt.Errorf("scenario: negative conformance seed count %d", o.Seeds)
	}
	return nil
}

func (o ConformanceOptions) fill() ConformanceOptions {
	if o.DurationSec == 0 {
		o.DurationSec = 30
	}
	if o.Seeds == 0 {
		o.Seeds = 3
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
		WarmupSec:   5,
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

// caseFluid builds the same topology as a fluid model: capacities in
// packets per second, one user per flow, every route at the effective RTT.
func caseFluid(c ConformanceCase) (*fluid.Model, error) {
	algo, err := fluid.ParseAlgo(c.Algo)
	if err != nil {
		return nil, err
	}
	net := &fluid.Network{}
	mp := fluid.User{}
	for i, cap := range c.CapsMbps {
		net.Links = append(net.Links, fluid.Link{
			Capacity:  cap * 1e6 / (8 * netem.MSS),
			P0:        fluidP0,
			Sharpness: fluidSharpness,
		})
		mp.Routes = append(mp.Routes, fluid.Route{Links: []int{i}, RTT: fluidRTT})
	}
	net.Users = append(net.Users, mp)
	for i, nBG := range c.Background {
		for j := 0; j < nBG; j++ {
			net.Users = append(net.Users, fluid.User{
				Routes: []fluid.Route{{Links: []int{i}, RTT: fluidRTT}},
			})
		}
	}
	return fluid.NewModel(net, algo), nil
}

// runCase executes one comparison: seed-averaged packet runs against the
// fluid equilibrium.
func runCase(ctx context.Context, c ConformanceCase, opts ConformanceOptions) (ConformanceResult, error) {
	res := ConformanceResult{Case: c}
	perPath := make([]float64, len(c.CapsMbps))
	for seed := int64(1); seed <= int64(opts.Seeds); seed++ {
		rep, err := Run(ctx, caseSpec(c, opts.DurationSec, seed))
		if err != nil {
			return res, err
		}
		res.Violations = append(res.Violations, rep.Violations...)
		mp := rep.Flows[0]
		res.SimTotalMbps += mp.GoodputMbps / float64(opts.Seeds)
		for i, v := range mp.PathMbps {
			perPath[i] += v / float64(opts.Seeds)
		}
	}
	for _, v := range perPath {
		share := 0.0
		if res.SimTotalMbps > 0 {
			share = v / res.SimTotalMbps
		}
		res.SimShares = append(res.SimShares, share)
	}

	model, err := caseFluid(c)
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

// scheduler conformance rig: two heterogeneous RED paths and a finite
// stream sized to complete well inside even the smoke-test window.
var schedCheckCaps = []float64{8, 2}

const schedCheckBytes = 4 << 20

// schedSpec builds the scheduler conformance scenario: one olia flow
// carrying a scheduled stream over an 8 + 2 Mb/s path pair, no competition,
// so capacity is the only thing that can bound the transfer.
func schedSpec(name string, durationSec float64, seed int64) *Spec {
	sp := &Spec{
		Name:        "conform-sched-" + name,
		Seed:        seed,
		DurationSec: durationSec,
	}
	mp := FlowSpec{
		Name: "stream", Algorithm: "olia",
		FlowBytes: schedCheckBytes, Scheduler: name,
		// Normal slow start: a short flow's completion time is dominated by
		// ramp-up under the §IV-B setting, muddying the capacity signal.
		KeepSlowStart: true,
	}
	for i, cap := range schedCheckCaps {
		sp.Links = append(sp.Links, LinkSpec{RateMbps: cap})
		sp.Paths = append(sp.Paths, PathSpec{Links: []int{i}, DelayMs: 40})
		mp.Paths = append(mp.Paths, i)
	}
	sp.Flows = append(sp.Flows, mp)
	return sp
}

// runSchedCheck runs one scheduler's capacity conformance case.
func runSchedCheck(ctx context.Context, name string, opts ConformanceOptions) (SchedulerCheck, error) {
	sc := SchedulerCheck{Scheduler: name}
	sc.BoundMbps = 0
	for _, cap := range schedCheckCaps {
		if name == "redundant" {
			if cap > sc.BoundMbps {
				sc.BoundMbps = cap // best single path: every byte rides every path
			}
		} else {
			sc.BoundMbps += cap // aggregate capacity
		}
	}
	rep, err := Run(ctx, schedSpec(name, opts.DurationSec, 1))
	if err != nil {
		return sc, err
	}
	sc.Violations = rep.Violations
	st := rep.Flows[0].Stream
	sc.Done = st.Done
	if st.Done {
		sc.CompletionSec = st.CompletionSec
		sc.RateMbps = schedCheckBytes * 8 / 1e6 / st.CompletionSec
	}
	// 5% slack: the first chunk is clocked out against an empty window, so
	// a short transfer can marginally beat the steady-state line rate.
	sc.Pass = sc.Done && len(sc.Violations) == 0 && sc.RateMbps <= sc.BoundMbps*1.05
	return sc, nil
}

// runFixedPoint compares the measured scenario-A allocation against the
// Appendix-A LIA fixed point, at N1 = N2 = 10, C1 = C2 = 1 Mb/s: the
// regime where LIA visibly underperforms the optimum, so a miscoupled
// controller or a broken fixed-point solver cannot slip through on
// symmetry alone.
func runFixedPoint(ctx context.Context, durationSec float64) (FixedPointCheck, error) {
	var fc FixedPointCheck
	const n1, n2, c1, c2 = 10, 10, 1.0, 1.0
	rep, err := Run(ctx, PaperScenarioA(n1, n2, c1, c2, "lia", 1, 5, durationSec))
	if err != nil {
		return fc, err
	}
	for _, f := range rep.Flows[:n1] {
		fc.MeasuredT1Norm += f.GoodputMbps / c1 / n1
	}
	for _, f := range rep.Flows[n1:] {
		fc.MeasuredT2Norm += f.GoodputMbps / c2 / n2
	}
	ana, err := fixedpoint.ScenarioALIA(n1, n2, c1, c2, fixedpoint.PaperRTT)
	if err != nil {
		return fc, err
	}
	fc.AnalyticT1Norm, fc.AnalyticT2Norm = ana.Type1Norm, ana.Type2Norm
	fc.Pass = len(rep.Violations) == 0 &&
		math.Abs(fc.MeasuredT1Norm-fc.AnalyticT1Norm) <= NormTolerance &&
		math.Abs(fc.MeasuredT2Norm-fc.AnalyticT2Norm) <= NormTolerance
	return fc, nil
}

// RunConformance runs every conformance case plus the scenario-A
// fixed-point check (opts must pass Validate). Cases are independent
// simulations and run concurrently on workers workers (<= 0 selects
// GOMAXPROCS) in one runner.Stream; results are folded into the report in
// case order as they arrive. progress, when non-nil, receives the
// cumulative (done, total) case counts (the fixed-point check and each
// scheduler check count as one case) — (0, total) first, then one call per
// case folded — on the goroutine that called RunConformance.
//
// Cancelling ctx stops unstarted cases at the next job boundary (running
// cases abandon their packet runs at a one-second virtual-time boundary)
// and returns an error wrapping ctx.Err(). The first case to fail, in case
// order, is the error returned.
func RunConformance(ctx context.Context, opts ConformanceOptions, workers int, progress func(done, total int)) (*ConformanceReport, error) {
	opts = opts.fill()
	cases := ConformanceCases()
	scheds := mptcp.Schedulers()
	rep := &ConformanceReport{Tolerance: ShareTolerance}
	type outcome struct {
		res ConformanceResult
		fc  FixedPointCheck
		sc  SchedulerCheck
		err error
	}
	// Job layout: the share cases, then the fixed-point check, then one
	// capacity check per registered scheduler.
	total := len(cases) + 1 + len(scheds)
	if progress == nil {
		progress = func(int, int) {}
	}
	progress(0, total)
	var failed error
	err := runner.Stream(ctx, runner.New(workers), total, func(i int) outcome {
		switch {
		case i < len(cases):
			res, err := runCase(ctx, cases[i], opts)
			return outcome{res: res, err: err}
		case i == len(cases):
			fc, err := runFixedPoint(ctx, opts.DurationSec)
			return outcome{fc: fc, err: err}
		default:
			sc, err := runSchedCheck(ctx, scheds[i-len(cases)-1], opts)
			return outcome{sc: sc, err: err}
		}
	}, func(i int, out outcome) {
		progress(i+1, total)
		switch {
		case failed != nil:
		case out.err != nil && i < len(cases):
			failed = fmt.Errorf("scenario: conformance case %s/%s: %w", cases[i].Name, cases[i].Algo, out.err)
		case out.err != nil && i == len(cases):
			failed = fmt.Errorf("scenario: conformance fixed-point check: %w", out.err)
		case out.err != nil:
			failed = fmt.Errorf("scenario: conformance scheduler check %s: %w", scheds[i-len(cases)-1], out.err)
		case i < len(cases):
			rep.Results = append(rep.Results, out.res)
		case i == len(cases):
			rep.FixedPoint = out.fc
		default:
			rep.Schedulers = append(rep.Schedulers, out.sc)
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
