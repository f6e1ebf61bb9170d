package harness

import (
	"context"
	"fmt"
	"io"

	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// compile builds a testbed network from its spec. The specs come from the
// scenario.Paper* builders with registry-fixed parameters, so a rejected
// spec is a harness bug.
func compile(sp *scenario.Spec) *scenario.Net {
	n, err := scenario.Compile(sp)
	if err != nil {
		panic(fmt.Sprintf("harness: %s spec invalid: %v", sp.Name, err))
	}
	return n
}

// run executes a network over its [Warmup, End] window under the scenario
// invariant checks; every simulated experiment goes through it. The exact
// integer byte deltas are left in each Flow's Window; the float arithmetic
// (and its summation order, which the golden bytes depend on) stays with
// each experiment. A cancelled run reports ok false and its job returns zero
// metrics, which are never folded (collect settles nothing once its context
// is done); an invariant violation on a registry spec is a harness bug and
// panics inside the job.
func run(ctx context.Context, n *scenario.Net) (rep *scenario.RunReport, ok bool) {
	rep, err := n.Run(ctx)
	if err != nil {
		return nil, false
	}
	if len(rep.Violations) != 0 {
		panic(fmt.Sprintf("harness: %s: invariant violations: %v", n.Name, rep.Violations))
	}
	return rep, true
}

// paperAC is the shared shape of the Scenario A and C spec builders: N1
// multipath users and N2 single-path users over two bottlenecks of per-user
// capacity C1 and C2 (Mb/s).
type paperAC func(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) *scenario.Spec

// acMetrics are the Scenario A observables of Figs. 1, 9 and 10, or the
// Scenario C observables of Figs. 5, 11 and 12, from one simulation run:
// the multipath and single-path groups' normalized throughputs and the two
// bottlenecks' loss probabilities.
type acMetrics struct {
	multiNorm, singleNorm, p1, p2 float64
}

// acPoint identifies one Scenario A or C sweep cell: a capacity ratio, a
// multipath user count, and the algorithm under test. N2 = 10 single-path
// users and C2 = 1 Mb/s throughout.
type acPoint struct {
	c1   float64
	n1   int
	algo string
}

// runScenarioAC executes one Scenario A or C simulation and reports
// normalized throughputs and loss probabilities over the measurement
// window.
func runScenarioAC(ctx context.Context, build paperAC, p acPoint, seed int64, cfg Config) acMetrics {
	const n2, c2 = 10, 1.0
	n := compile(build(p.n1, n2, p.c1, c2, p.algo, seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	rep, ok := run(ctx, n)
	if !ok {
		return acMetrics{}
	}
	secs := cfg.Duration.Sec()
	var m acMetrics
	for _, f := range n.Groups[0] {
		m.multiNorm += stats.Mbps(f.WindowBytes(), secs) / p.c1 / float64(p.n1)
	}
	for _, f := range n.Groups[1] {
		m.singleNorm += stats.Mbps(f.WindowBytes(), secs) / c2 / n2
	}
	m.p1, m.p2 = rep.Queues[0].Window.LossProb(), rep.Queues[1].Window.LossProb()
	return m
}

// acSweep is a Scenario A or C grid: C1/C2 ratios × N1 user counts.
type acSweep struct {
	n1s []int
	c1s []float64
}

var (
	// scenarioASweep is the grid of Figs. 1(b,c), 9 and 10: N2 = 10 users,
	// N1/N2 ∈ {1,2,3}, C2 = 1 Mb/s, C1/C2 ∈ {0.75, 1, 1.5}.
	scenarioASweep = acSweep{[]int{10, 20, 30}, []float64{0.75, 1.0, 1.5}}
	// scenarioCSweep is the grid of Figs. 5(c,d), 11 and 12: N2 = 10,
	// N1 ∈ {5,10,20,30}, C2 = 1 Mb/s, C1/C2 ∈ {1, 2}.
	scenarioCSweep = acSweep{[]int{5, 10, 20, 30}, []float64{1.0, 2.0}}
)

// acResult is the seed-averaged outcome at one sweep cell — the typed form
// of one table row.
type acResult struct {
	point                 acPoint
	multi, single, p1, p2 stats.Summary
}

// planScenarioAC plans a Scenario A or C grid for the given algorithms.
// Every (cell × seed) run is an independent job; per-seed metrics merge in
// seed order, so the result is identical for any worker count.
func planScenarioAC(build paperAC, grid acSweep, algos []string, result func(res []acResult, withLoss bool) (*Result, error), withLoss bool) func(Config) Plan {
	var pts []acPoint
	for _, c1 := range grid.c1s {
		for _, n1 := range grid.n1s {
			for _, algo := range algos {
				pts = append(pts, acPoint{c1, n1, algo})
			}
		}
	}
	return func(cfg Config) Plan {
		return sweep(cfg, pts, func(ctx context.Context, p acPoint, seed int64) acMetrics {
			return runScenarioAC(ctx, build, p, seed, cfg)
		}, func(per [][]acMetrics) (*Result, error) {
			out := make([]acResult, len(pts))
			for i, p := range pts {
				out[i].point = p
				for _, m := range per[i] {
					out[i].multi.Add(m.multiNorm)
					out[i].single.Add(m.singleNorm)
					out[i].p1.Add(m.p1)
					out[i].p2.Add(m.p2)
				}
			}
			return result(out, withLoss)
		})
	}
}

// resultScenarioA structures collected results, one row per sweep cell,
// with the analytic fixed point and the optimum-with-probing alongside.
func resultScenarioA(res []acResult, withLoss bool) (*Result, error) {
	r := &Result{Columns: []Column{
		{Name: "c1_over_c2"}, {Name: "n1_over_n2"}, {Name: "algo"},
		{Name: "t1", Unit: "norm"}, {Name: "t2", Unit: "norm"},
		{Name: "analytic_t1", Unit: "norm"}, {Name: "analytic_t2", Unit: "norm"},
		{Name: "optimum_t1", Unit: "norm"}, {Name: "optimum_t2", Unit: "norm"},
	}}
	if withLoss {
		r.Columns = append(r.Columns,
			Column{Name: "p1"}, Column{Name: "p2"},
			Column{Name: "analytic_p1"}, Column{Name: "analytic_p2"})
	}
	for _, row := range res {
		ana, err := fixedpoint.ScenarioALIA(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.PaperRTT)
		if err != nil {
			return nil, err
		}
		opt := fixedpoint.ScenarioAOptimum(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.PaperRTT)
		cells := []Cell{
			NumCell(row.point.c1), NumCell(float64(row.point.n1) / 10), TextCell(row.point.algo),
			SummaryCell(row.multi), SummaryCell(row.single),
			NumCell(ana.Type1Norm), NumCell(ana.Type2Norm),
			NumCell(opt.Type1Norm), NumCell(opt.Type2Norm),
		}
		if withLoss {
			cells = append(cells,
				SummaryCell(row.p1), SummaryCell(row.p2), NumCell(ana.P1), NumCell(ana.P2))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textScenarioA is the classic Figs. 1/9/10 table layout; the loss columns
// print when the Result carries them.
func textScenarioA(r *Result, w io.Writer) error {
	withLoss := len(r.Columns) > 9
	fmt.Fprintf(w, "%-6s %-5s %-6s | %-28s | %-18s | %s\n",
		"C1/C2", "N1/N2", "algo", "measured t1 / t2 (norm)", "analytic t1 / t2", "optimum t1 / t2")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-6.2f %-5.1f %-6s | %6.3f±%.3f / %6.3f±%.3f | %8.3f / %8.3f | %6.3f / %6.3f",
			c[0].Value, c[1].Value, c[2].Text,
			c[3].Value, c[3].CI95, c[4].Value, c[4].CI95,
			c[5].Value, c[6].Value, c[7].Value, c[8].Value)
		if withLoss {
			fmt.Fprintf(w, " | p1=%.4f±%.4f p2=%.4f±%.4f (analytic p1=%.4f p2=%.4f)",
				c[9].Value, c[9].CI95, c[10].Value, c[10].CI95, c[11].Value, c[12].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func scenarioAExperiment(algos []string, withLoss bool) func(Config) Plan {
	return planScenarioAC(scenario.PaperScenarioA, scenarioASweep, algos, resultScenarioA, withLoss)
}

// resultScenarioC structures collected Scenario C results.
func resultScenarioC(res []acResult, withLoss bool) (*Result, error) {
	r := &Result{Columns: []Column{
		{Name: "c1_over_c2"}, {Name: "n1_over_n2"}, {Name: "algo"},
		{Name: "multi", Unit: "norm"}, {Name: "single", Unit: "norm"},
		{Name: "analytic_multi", Unit: "norm"}, {Name: "analytic_single", Unit: "norm"},
		{Name: "optimum_multi", Unit: "norm"}, {Name: "optimum_single", Unit: "norm"},
	}}
	if withLoss {
		r.Columns = append(r.Columns,
			Column{Name: "p1"}, Column{Name: "p2"}, Column{Name: "analytic_p2"})
	}
	for _, row := range res {
		ana, err := fixedpoint.ScenarioCLIA(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.PaperRTT)
		if err != nil {
			return nil, err
		}
		opt := fixedpoint.ScenarioCOptimum(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.PaperRTT)
		cells := []Cell{
			NumCell(row.point.c1), NumCell(float64(row.point.n1) / 10), TextCell(row.point.algo),
			SummaryCell(row.multi), SummaryCell(row.single),
			NumCell(ana.MultiNorm), NumCell(ana.SingleNorm),
			NumCell(opt.MultiNorm), NumCell(opt.SingleNorm),
		}
		if withLoss {
			cells = append(cells, SummaryCell(row.p1), SummaryCell(row.p2), NumCell(ana.P2))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textScenarioC is the classic Figs. 5/11/12 table layout.
func textScenarioC(r *Result, w io.Writer) error {
	withLoss := len(r.Columns) > 9
	fmt.Fprintf(w, "%-6s %-5s %-6s | %-30s | %-18s | %s\n",
		"C1/C2", "N1/N2", "algo", "measured multi / single (norm)", "analytic (LIA)", "optimum multi / single")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-6.2f %-5.1f %-6s | %7.3f±%.3f / %7.3f±%.3f | %8.3f / %8.3f | %6.3f / %6.3f",
			c[0].Value, c[1].Value, c[2].Text,
			c[3].Value, c[3].CI95, c[4].Value, c[4].CI95,
			c[5].Value, c[6].Value, c[7].Value, c[8].Value)
		if withLoss {
			fmt.Fprintf(w, " | p1=%.4f±%.4f p2=%.4f±%.4f (analytic p2=%.4f)",
				c[9].Value, c[9].CI95, c[10].Value, c[10].CI95, c[11].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func scenarioCExperiment(algos []string, withLoss bool) func(Config) Plan {
	return planScenarioAC(scenario.PaperScenarioC, scenarioCSweep, algos, resultScenarioC, withLoss)
}

// bMetrics are the Scenario B observables of Tables I and II from one
// simulation run.
type bMetrics struct {
	bluePerUser, redPerUser, aggregate float64
}

// runScenarioB executes one Scenario B simulation (N = 15 users of each
// color, CX = 27, CT = 36 Mb/s) with Red users single-path or upgraded.
func runScenarioB(ctx context.Context, algo string, redMultipath bool, seed int64, cfg Config) bMetrics {
	const users = 15
	n := compile(scenario.PaperScenarioB(users, 27, 36, algo, redMultipath, seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	if _, ok := run(ctx, n); !ok {
		return bMetrics{}
	}
	secs := cfg.Duration.Sec()
	var m bMetrics
	for _, f := range n.Group("blue") {
		m.bluePerUser += stats.Mbps(f.WindowBytes(), secs) / users
	}
	for _, f := range n.Group("red") {
		m.redPerUser += stats.Mbps(f.WindowBytes(), secs) / users
	}
	m.aggregate = users * (m.bluePerUser + m.redPerUser)
	return m
}

// bResult is the seed-averaged Scenario B outcome for one Red-user mode
// (single-path or multipath).
type bResult struct {
	multipath      bool
	blue, red, agg stats.Summary
}

// resultTableB structures a Table I / Table II comparison from collected
// results: Red single-path vs Red multipath, with the LIA fixed point.
func resultTableB(algo string, res []bResult) (*Result, error) {
	r := &Result{
		Preamble: []string{fmt.Sprintf("Scenario B, %s: CX=27, CT=36, 15+15 users (cut-set bound 63 Mb/s)", algo)},
		Columns: []Column{
			{Name: "red_users"},
			{Name: "blue", Unit: "Mb/s"}, {Name: "red", Unit: "Mb/s"}, {Name: "agg", Unit: "Mb/s"},
			{Name: "analytic_agg", Unit: "Mb/s"},
		},
	}
	var aggVals [2]float64
	for i, row := range res {
		ana, err := fixedpoint.ScenarioBLIA(15, 27, 36, row.multipath, fixedpoint.PaperRTT)
		if err != nil {
			return nil, err
		}
		mode := "Single-path"
		if row.multipath {
			mode = "Multipath"
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(mode),
			SummaryCell(row.blue), SummaryCell(row.red), SummaryCell(row.agg),
			NumCell(ana.Aggregate),
		})
		aggVals[i] = row.agg.Mean()
	}
	drop := (aggVals[0] - aggVals[1]) / aggVals[0] * 100
	r.Footer = []string{fmt.Sprintf(
		"aggregate change on upgrade: %+.1f%% (paper: −13%% for LIA, −3.5%% for OLIA)", -drop)}
	return r, nil
}

// textTableB is the classic Table I / Table II layout.
func textTableB(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-12s | %-12s %-12s %-12s | %s\n",
		"Red users", "Blue (Mb/s)", "Red (Mb/s)", "Agg (Mb/s)", "analytic agg (LIA fixed point)")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-12s | %5.1f±%.1f    %5.1f±%.1f    %5.1f±%.1f   | %.1f\n",
			c[0].Text, c[1].Value, c[1].CI95, c[2].Value, c[2].CI95,
			c[3].Value, c[3].CI95, c[4].Value)
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// tableBExperiment reproduces Table I / Table II for one algorithm: both
// Red-user modes, one job per (mode × seed).
func tableBExperiment(algo string) func(Config) Plan {
	return func(cfg Config) Plan {
		modes := []bool{false, true}
		return sweep(cfg, modes, func(ctx context.Context, mp bool, seed int64) bMetrics {
			return runScenarioB(ctx, algo, mp, seed, cfg)
		}, func(per [][]bMetrics) (*Result, error) {
			out := make([]bResult, len(modes))
			for i, mp := range modes {
				out[i].multipath = mp
				for _, m := range per[i] {
					out[i].blue.Add(m.bluePerUser)
					out[i].red.Add(m.redPerUser)
					out[i].agg.Add(m.aggregate)
				}
			}
			return resultTableB(algo, out)
		})
	}
}

func init() {
	register(&Experiment{
		ID:       "fig1b",
		PaperRef: "Figure 1(b)",
		Title:    "Scenario A: normalized throughput of type1/type2 users under LIA vs analytic fixed point and optimum with probing cost",
		Plan:     scenarioAExperiment([]string{"lia"}, false),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "fig1c",
		PaperRef: "Figure 1(c)",
		Title:    "Scenario A: loss probability p2 at the shared AP under LIA",
		Plan:     scenarioAExperiment([]string{"lia"}, true),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "table1",
		PaperRef: "Table I",
		Title:    "Scenario B measurements with LIA: upgrading Red users reduces everyone's throughput (problem P1)",
		Plan:     tableBExperiment("lia"),
		Text:     textTableB,
	})
	register(&Experiment{
		ID:       "fig5c",
		PaperRef: "Figure 5(c)",
		Title:    "Scenario C: normalized throughputs under LIA vs analysis (problem P2: aggressiveness toward TCP users)",
		Plan:     scenarioCExperiment([]string{"lia"}, false),
		Text:     textScenarioC,
	})
	register(&Experiment{
		ID:       "fig5d",
		PaperRef: "Figure 5(d)",
		Title:    "Scenario C: loss probability p2 at AP2 under LIA",
		Plan:     scenarioCExperiment([]string{"lia"}, true),
		Text:     textScenarioC,
	})
	register(&Experiment{
		ID:       "fig9",
		PaperRef: "Figure 9",
		Title:    "Scenario A: OLIA vs LIA normalized throughputs (OLIA approaches the optimum with probing cost)",
		Plan:     scenarioAExperiment([]string{"lia", "olia"}, false),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "fig10",
		PaperRef: "Figure 10",
		Title:    "Scenario A: loss probability p2, OLIA vs LIA (OLIA balances congestion)",
		Plan:     scenarioAExperiment([]string{"lia", "olia"}, true),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "table2",
		PaperRef: "Table II",
		Title:    "Scenario B measurements with OLIA: upgrade penalty shrinks to the probing cost",
		Plan:     tableBExperiment("olia"),
		Text:     textTableB,
	})
	register(&Experiment{
		ID:       "fig11",
		PaperRef: "Figure 11",
		Title:    "Scenario C: OLIA vs LIA normalized throughputs",
		Plan:     scenarioCExperiment([]string{"lia", "olia"}, false),
		Text:     textScenarioC,
	})
	register(&Experiment{
		ID:       "fig12",
		PaperRef: "Figure 12",
		Title:    "Scenario C: loss probability p2, OLIA vs LIA",
		Plan:     scenarioCExperiment([]string{"lia", "olia"}, true),
		Text:     textScenarioC,
	})
}
