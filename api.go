// Package mptcpsim reproduces "MPTCP is not Pareto-Optimal: Performance
// Issues and a Possible Solution" (Khalili, Gast, Popovic, Le Boudec;
// CoNEXT 2012 / IEEE-ACM ToN 2013) as a self-contained Go library: a
// packet-level network simulator, a TCP/MPTCP stack with the paper's
// coupled congestion controllers (OLIA, LIA, and the ε-family baselines),
// the paper's analytic fixed points, its fluid model, and a harness that
// regenerates every table and figure of the evaluation.
//
// This top-level package is the public facade, built around one engine:
//
//   - Lab (NewLab + functional options) is the simulation engine. Its
//     context-aware methods cover every long-running entry point —
//     Collect/RunAll regenerate the paper's tables and figures as
//     structured Results, Run executes declarative N-path scenarios, Fuzz
//     and Conform drive the invariant fuzzer and the cross-model
//     conformance suite, Campaign samples and aggregates thousands of
//     scenarios from a parameter-distribution population (with a
//     content-addressed result cache), Simulate runs custom
//     multipath-vs-TCP microbenchmarks, and Analyze evaluates the paper's
//     loss-throughput fixed points without simulation. Calls can be cancelled via their
//     context (errors wrap ErrCanceled) and observed in flight via
//     WithProgress; failures are matchable with errors.Is/As against the
//     typed error family in errors.go.
//   - Rendering and comparison stay pure functions: RenderResult, Diff,
//     ParseFormat.
//
// The heavy machinery lives under internal/ (see DESIGN.md for the map).
package mptcpsim

import (
	"io"

	"mptcpsim/internal/campaign"
	"mptcpsim/internal/core"
	"mptcpsim/internal/harness"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
)

// Experiment is one table or figure of the paper (see harness).
type Experiment = harness.Experiment

// Config scales experiment runs; see DefaultConfig and FullConfig.
type Config = harness.Config

// Result is the structured outcome of one experiment: metadata, typed
// columns, rows of cells (with units, 95% CIs and sample counts preserved),
// and time series for the trace experiments.
type Result = harness.Result

// Column, Cell and Series are the building blocks of a Result.
type (
	Column = harness.Column
	Cell   = harness.Cell
	Series = harness.Series
)

// Format selects how results are rendered: FormatText (the paper's aligned
// tables), FormatJSON, or FormatCSV.
type Format = harness.Format

// Render formats for experiment output.
const (
	FormatText = harness.FormatText
	FormatJSON = harness.FormatJSON
	FormatCSV  = harness.FormatCSV
)

// ParseFormat validates a format name ("text", "json", "csv"; "" means
// text).
func ParseFormat(s string) (Format, error) { return harness.ParseFormat(s) }

// DiffReport lists the per-cell deltas between two collected Results.
type DiffReport = harness.DiffReport

// Diff compares two collected Results cell by cell — the seed of regression
// tooling: collect the same experiment at two commits (or two algorithms,
// scales, worker counts) and gate on the numeric drift.
func Diff(a, b *Result) *DiffReport { return harness.Diff(a, b) }

// DefaultConfig returns the quick configuration (minutes for the whole
// registry: shorter runs, K=4 fabric, one seed).
func DefaultConfig() Config { return harness.DefaultConfig() }

// FullConfig returns the paper-scale configuration (120 s runs, 5 seeds,
// K=8 FatTree, 2-8 subflows).
func FullConfig() Config { return harness.FullConfig() }

// Experiments lists every reproducible table/figure in paper order.
func Experiments() []*Experiment { return harness.Experiments() }

// RenderResult writes a collected Result to w in the given format. Text
// output is byte-identical to the classic tables.
func RenderResult(r *Result, format Format, w io.Writer) error {
	return harness.Render(r, format, w)
}

// ScenarioSpec declaratively describes an arbitrary N-path topology —
// links (rate/delay/loss/queue discipline), paths over them, and flows
// (algorithm, path set, start/stop times, workload) — compiled into a
// runnable simulation by Lab.Run. See internal/scenario.
type ScenarioSpec = scenario.Spec

// ScenarioLink, ScenarioPath and ScenarioFlow are the building blocks of a
// ScenarioSpec.
type (
	ScenarioLink = scenario.LinkSpec
	ScenarioPath = scenario.PathSpec
	ScenarioFlow = scenario.FlowSpec
)

// ScenarioReport is the outcome of a Lab.Run call: per-flow and per-path
// goodput, per-queue counters, and every invariant violation detected
// (empty on a healthy run).
type ScenarioReport = scenario.RunReport

// TimelineEvent, LinkSetpoint and PathFlap build a ScenarioSpec's fault
// timeline: timestamped mid-run mutations — link shaping setpoints and
// path up/down flaps — executed by the compiled simulation without
// perturbing its determinism (the same spec and seed reproduce byte for
// byte, at any worker count).
type (
	TimelineEvent = scenario.TimelineEvent
	LinkSetpoint  = scenario.LinkSetpoint
	PathFlap      = scenario.PathFlap
)

// Float builds the optional *float64 setpoint fields of a LinkSetpoint in
// literals: LossPct: mptcpsim.Float(100) black-holes a link.
func Float(v float64) *float64 { return scenario.Float(v) }

// RateTrace expands a piecewise-constant rate trace into timeline setpoint
// events: link holds rates[0] from startSec, rates[1] from
// startSec+stepSec, and so on. Append the result to ScenarioSpec.Timeline,
// keeping overall time order.
func RateTrace(link int, startSec, stepSec float64, rates ...float64) []TimelineEvent {
	return scenario.RateTrace(link, startSec, stepSec, rates...)
}

// GenFuzzSpec deterministically rebuilds scenario index of a fuzz campaign
// anchored at seed — the replay entry for fuzz failures: run the returned
// spec with Lab.Run and inspect the report's Violations.
func GenFuzzSpec(seed int64, index int) ScenarioSpec {
	return *scenario.GenSpec(seed, index)
}

// PaperScenarioA expresses the paper's Fig. 1(a) testbed as a spec: N1
// type1 multipath users download over a private path and a path continuing
// across the shared AP; N2 type2 TCP users cross the shared AP alone.
// Capacities are per user (Mb/s); starts are jittered as in the testbed.
func PaperScenarioA(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) ScenarioSpec {
	return *scenario.PaperScenarioA(n1, n2, c1, c2, algo, seed, warmupSec, durationSec)
}

// CampaignSpec declares a Monte Carlo campaign for Lab.Campaign: a
// population of network conditions as parameter distributions (path
// count, per-link rate/delay/loss, queue disciplines, controllers,
// schedulers, background load, fault timelines) plus the campaign size
// and seed. Start from DefaultCampaign and override fields. See
// internal/campaign.
type CampaignSpec = campaign.Spec

// CampaignResult is the outcome of a Lab.Campaign call: exact counters
// (simulated runs, cache hits, invariant violations) plus one
// CampaignAggregate per population metric, with a Digest fingerprinting
// the statistical content.
type CampaignResult = campaign.Result

// CampaignDist, CampaignIntRange, CampaignFaults and CampaignAggregate
// are the building blocks of a CampaignSpec and its Result.
type (
	CampaignDist      = campaign.Dist
	CampaignIntRange  = campaign.IntRange
	CampaignFaults    = campaign.FaultSpec
	CampaignAggregate = campaign.Aggregate
)

// DistConst returns the campaign distribution that always yields v.
func DistConst(v float64) CampaignDist { return campaign.Const(v) }

// DistUniform returns the uniform campaign distribution over [lo, hi].
func DistUniform(lo, hi float64) CampaignDist { return campaign.Uniform(lo, hi) }

// DistLogUniform returns the log-uniform campaign distribution over
// [lo, hi], lo > 0 — each decade of the range equally likely.
func DistLogUniform(lo, hi float64) CampaignDist { return campaign.LogUniform(lo, hi) }

// DistChoice returns the uniform discrete campaign distribution over vs.
func DistChoice(vs ...float64) CampaignDist { return campaign.Choice(vs...) }

// DefaultCampaign returns the reference campaign population — dual-homed
// users over log-uniform bottlenecks with background TCP load and a
// sprinkle of faults — the spec `mptcpsim campaign` and the serve API
// start from.
func DefaultCampaign() *CampaignSpec { return campaign.Default() }

// FuzzOptions and FuzzReport scale and summarize a scenario-fuzzing
// campaign (Lab.Fuzz).
type (
	FuzzOptions = scenario.FuzzOptions
	FuzzReport  = scenario.FuzzReport
)

// ConformanceOptions and ConformanceReport scale and summarize the
// cross-model conformance suite (Lab.Conform).
type (
	ConformanceOptions = scenario.ConformanceOptions
	ConformanceReport  = scenario.ConformanceReport
)

// Algorithms lists the available congestion-control algorithms: "olia"
// (this paper's contribution), "lia" (RFC 6356), "uncoupled" (ε=2) and
// "fullycoupled" (ε=0).
func Algorithms() []string { return core.Names() }

// Schedulers lists the available subflow schedulers for finite transfers
// (ScenarioFlow.Scheduler): "pull" (demand-driven default), "minrtt" (Linux
// default policy), "roundrobin", "ecf" (Earliest Completion First) and
// "redundant" (duplicate chunks on all paths).
func Schedulers() []string {
	return mptcp.Schedulers()
}

// TwoPathAnalysis is the analytic counterpart of a two-path Lab.Simulate:
// given loss probabilities and RTTs it evaluates the paper's fixed points.
type TwoPathAnalysis struct {
	// TCPBestMbps is √(2/p)/rtt on the better path (goal 1's reference).
	TCPBestMbps float64
	// LIAMbps are LIA's per-path rates (Eq. 2).
	LIAMbps []float64
	// OLIAMbps are OLIA's Theorem-1 equilibrium rates.
	OLIAMbps []float64
}
