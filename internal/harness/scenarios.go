package harness

import (
	"fmt"

	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// paperAC is the shared shape of the Scenario A and C spec builders: N1
// multipath users and N2 single-path users over two bottlenecks of per-user
// capacity C1 and C2 (Mb/s).
type paperAC func(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) *scenario.Spec

// runScenarioAC is one Scenario A or C point, read as normalized
// throughputs and loss probabilities over the measurement window: the
// multipath and single-path groups' (readings 0 and 1) and the two
// bottlenecks' (2 and 3). N2 = 10 single-path users and C2 = 1 Mb/s
// throughout.
func runScenarioAC(build paperAC, c1 float64, n1 int, algo string) network {
	const n2, c2 = 10, 1.0
	return func(cfg Config, seed int64, out *[]float64) Job {
		sp := build(n1, n2, c1, c2, algo, seed, cfg.Warmup.Sec(), cfg.Duration.Sec())
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			secs := cfg.Duration.Sec()
			var multi, single float64
			for _, f := range rep.Group(sp, sp.Flows[0].Name) {
				multi += stats.Mbps(f.WindowBytes, secs) / c1 / float64(n1)
			}
			for _, f := range rep.Group(sp, sp.Flows[1].Name) {
				single += stats.Mbps(f.WindowBytes, secs) / c2 / n2
			}
			*out = []float64{multi, single, rep.Queues[0].Window.LossProb(), rep.Queues[1].Window.LossProb()}
		}}
	}
}

// acRows is a Scenario A or C grid for the given algorithms: C1/C2 ratios
// × N1 user counts × algorithms, labelled C1/C2, N1/N2 and the algorithm.
func acRows(build paperAC, n1s []int, c1s []float64, algos []string) []row {
	var rows []row
	for _, c1 := range c1s {
		for _, n1 := range n1s {
			for _, algo := range algos {
				rows = append(rows, row{
					labels: []Cell{NumCell(c1), NumCell(float64(n1) / 10), TextCell(algo)},
					run:    runScenarioAC(build, c1, n1, algo),
				})
			}
		}
	}
	return rows
}

// acPoint reads a Scenario A or C row's point back from its labels: N1 and
// C1 at N2 = 10 and C2 = 1. N1/N2 is exact for the grids' N1, so is
// N1 = 10·(N1/N2).
func acPoint(c []Cell) (n1, c1 float64) { return c[1].Value * 10, c[0].Value }

// scenarioA is Figs. 1(b,c), 9 and 10 over the grid N2 = 10 users,
// N1/N2 ∈ {1,2,3}, C2 = 1 Mb/s, C1/C2 ∈ {0.75, 1, 1.5}: the measured
// throughputs beside the analytic fixed point and the optimum with probing,
// and with loss the measured and analytic loss probabilities.
func scenarioA(algos []string, withLoss bool) *table {
	lia := func(c []Cell) (fixedpoint.AResult, error) {
		n1, c1 := acPoint(c)
		return fixedpoint.ScenarioALIA(n1, 10, c1, 1.0, fixedpoint.PaperRTT)
	}
	opt := func(c []Cell) fixedpoint.AResult {
		n1, c1 := acPoint(c)
		return fixedpoint.ScenarioAOptimum(n1, 10, c1, 1.0, fixedpoint.PaperRTT)
	}
	cols := append(acLabels,
		col{name: "t1", unit: "norm", verb: " | %6.3f±%.3f", read: at(0)},
		col{name: "t2", unit: "norm", verb: " / %6.3f±%.3f", read: at(1)},
		col{name: "analytic_t1", unit: "norm", verb: " | %8.3f", calc: func(c []Cell) (float64, error) {
			a, err := lia(c)
			return a.Type1Norm, err
		}},
		col{name: "analytic_t2", unit: "norm", verb: " / %8.3f", calc: func(c []Cell) (float64, error) {
			a, err := lia(c)
			return a.Type2Norm, err
		}},
		col{name: "optimum_t1", unit: "norm", verb: " | %6.3f", calc: func(c []Cell) (float64, error) {
			return opt(c).Type1Norm, nil
		}},
		col{name: "optimum_t2", unit: "norm", verb: " / %6.3f", calc: func(c []Cell) (float64, error) {
			return opt(c).Type2Norm, nil
		}})
	if withLoss {
		cols = append(cols,
			col{name: "p1", verb: " | p1=%.4f±%.4f", read: at(2)},
			col{name: "p2", verb: " p2=%.4f±%.4f", read: at(3)},
			col{name: "analytic_p1", verb: " (analytic p1=%.4f", calc: func(c []Cell) (float64, error) {
				a, err := lia(c)
				return a.P1, err
			}},
			col{name: "analytic_p2", verb: " p2=%.4f)", calc: func(c []Cell) (float64, error) {
				a, err := lia(c)
				return a.P2, err
			}})
	}
	return &table{
		head: fmt.Sprintf("%-6s %-5s %-6s | %-28s | %-18s | %s\n",
			"C1/C2", "N1/N2", "algo", "measured t1 / t2 (norm)", "analytic t1 / t2", "optimum t1 / t2"),
		cols:   cols,
		rows:   acRows(scenario.PaperScenarioA, []int{10, 20, 30}, []float64{0.75, 1.0, 1.5}, algos),
		seeded: true,
	}
}

// acLabels are the label columns of a Scenario A or C row.
var acLabels = []col{
	{name: "c1_over_c2", verb: "%-6.2f"}, {name: "n1_over_n2", verb: " %-5.1f"}, {name: "algo", verb: " %-6s"},
}

// scenarioC is Figs. 5(c,d), 11 and 12 over the grid N2 = 10,
// N1 ∈ {5,10,20,30}, C2 = 1 Mb/s, C1/C2 ∈ {1, 2}.
func scenarioC(algos []string, withLoss bool) *table {
	lia := func(c []Cell) (fixedpoint.CResult, error) {
		n1, c1 := acPoint(c)
		return fixedpoint.ScenarioCLIA(n1, 10, c1, 1.0, fixedpoint.PaperRTT)
	}
	opt := func(c []Cell) fixedpoint.CResult {
		n1, c1 := acPoint(c)
		return fixedpoint.ScenarioCOptimum(n1, 10, c1, 1.0, fixedpoint.PaperRTT)
	}
	cols := append(acLabels,
		col{name: "multi", unit: "norm", verb: " | %7.3f±%.3f", read: at(0)},
		col{name: "single", unit: "norm", verb: " / %7.3f±%.3f", read: at(1)},
		col{name: "analytic_multi", unit: "norm", verb: " | %8.3f", calc: func(c []Cell) (float64, error) {
			a, err := lia(c)
			return a.MultiNorm, err
		}},
		col{name: "analytic_single", unit: "norm", verb: " / %8.3f", calc: func(c []Cell) (float64, error) {
			a, err := lia(c)
			return a.SingleNorm, err
		}},
		col{name: "optimum_multi", unit: "norm", verb: " | %6.3f", calc: func(c []Cell) (float64, error) {
			return opt(c).MultiNorm, nil
		}},
		col{name: "optimum_single", unit: "norm", verb: " / %6.3f", calc: func(c []Cell) (float64, error) {
			return opt(c).SingleNorm, nil
		}})
	if withLoss {
		cols = append(cols,
			col{name: "p1", verb: " | p1=%.4f±%.4f", read: at(2)},
			col{name: "p2", verb: " p2=%.4f±%.4f", read: at(3)},
			col{name: "analytic_p2", verb: " (analytic p2=%.4f)", calc: func(c []Cell) (float64, error) {
				a, err := lia(c)
				return a.P2, err
			}})
	}
	return &table{
		head: fmt.Sprintf("%-6s %-5s %-6s | %-30s | %-18s | %s\n",
			"C1/C2", "N1/N2", "algo", "measured multi / single (norm)", "analytic (LIA)", "optimum multi / single"),
		cols:   cols,
		rows:   acRows(scenario.PaperScenarioC, []int{5, 10, 20, 30}, []float64{1.0, 2.0}, algos),
		seeded: true,
	}
}

// runScenarioB is one Scenario B run (N = 15 users of each color,
// CX = 27, CT = 36 Mb/s) with Red users single-path or upgraded, read as
// the per-user Blue and Red rates and the aggregate.
func runScenarioB(algo string, redMultipath bool) network {
	const users = 15
	return func(cfg Config, seed int64, out *[]float64) Job {
		sp := scenario.PaperScenarioB(users, 27, 36, algo, redMultipath, seed, cfg.Warmup.Sec(), cfg.Duration.Sec())
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			secs := cfg.Duration.Sec()
			var blue, red float64
			for _, f := range rep.Group(sp, "blue") {
				blue += stats.Mbps(f.WindowBytes, secs) / users
			}
			for _, f := range rep.Group(sp, "red") {
				red += stats.Mbps(f.WindowBytes, secs) / users
			}
			*out = []float64{blue, red, users * (blue + red)}
		}}
	}
}

// tableB reproduces Table I / Table II for one algorithm: Red single-path
// vs Red multipath, with the LIA fixed point.
func tableB(algo string) *table {
	return &table{
		preamble: []string{fmt.Sprintf("Scenario B, %s: CX=27, CT=36, 15+15 users (cut-set bound 63 Mb/s)", algo)},
		head: fmt.Sprintf("%-12s | %-12s %-12s %-12s | %s\n",
			"Red users", "Blue (Mb/s)", "Red (Mb/s)", "Agg (Mb/s)", "analytic agg (LIA fixed point)"),
		cols: []col{
			{name: "red_users", verb: "%-12s"},
			{name: "blue", unit: "Mb/s", verb: " | %5.1f±%.1f", read: at(0)},
			{name: "red", unit: "Mb/s", verb: "    %5.1f±%.1f", read: at(1)},
			{name: "agg", unit: "Mb/s", verb: "    %5.1f±%.1f", read: at(2)},
			{name: "analytic_agg", unit: "Mb/s", verb: "   | %.1f", calc: func(c []Cell) (float64, error) {
				b, err := fixedpoint.ScenarioBLIA(15, 27, 36, c[0].Text == "Multipath", fixedpoint.PaperRTT)
				return b.Aggregate, err
			}},
		},
		rows: []row{
			{labels: []Cell{TextCell("Single-path")}, run: runScenarioB(algo, false)},
			{labels: []Cell{TextCell("Multipath")}, run: runScenarioB(algo, true)},
		},
		seeded: true,
		finish: func(_ Config, r *Result, _ [][][]float64) error {
			single, multi := r.Rows[0][3].Value, r.Rows[1][3].Value
			r.Footer = []string{fmt.Sprintf(
				"aggregate change on upgrade: %+.1f%% (paper: −13%% for LIA, −3.5%% for OLIA)", -((single - multi) / single * 100))}
			return nil
		},
	}
}

func init() {
	registerTable("fig1b", "Figure 1(b)",
		"Scenario A: normalized throughput of type1/type2 users under LIA vs analytic fixed point and optimum with probing cost",
		scenarioA([]string{"lia"}, false))
	registerTable("fig1c", "Figure 1(c)",
		"Scenario A: loss probability p2 at the shared AP under LIA",
		scenarioA([]string{"lia"}, true))
	registerTable("table1", "Table I",
		"Scenario B measurements with LIA: upgrading Red users reduces everyone's throughput (problem P1)",
		tableB("lia"))
	registerTable("fig5c", "Figure 5(c)",
		"Scenario C: normalized throughputs under LIA vs analysis (problem P2: aggressiveness toward TCP users)",
		scenarioC([]string{"lia"}, false))
	registerTable("fig5d", "Figure 5(d)",
		"Scenario C: loss probability p2 at AP2 under LIA",
		scenarioC([]string{"lia"}, true))
	registerTable("fig9", "Figure 9",
		"Scenario A: OLIA vs LIA normalized throughputs (OLIA approaches the optimum with probing cost)",
		scenarioA([]string{"lia", "olia"}, false))
	registerTable("fig10", "Figure 10",
		"Scenario A: loss probability p2, OLIA vs LIA (OLIA balances congestion)",
		scenarioA([]string{"lia", "olia"}, true))
	registerTable("table2", "Table II",
		"Scenario B measurements with OLIA: upgrade penalty shrinks to the probing cost",
		tableB("olia"))
	registerTable("fig11", "Figure 11",
		"Scenario C: OLIA vs LIA normalized throughputs",
		scenarioC([]string{"lia", "olia"}, false))
	registerTable("fig12", "Figure 12",
		"Scenario C: loss probability p2, OLIA vs LIA",
		scenarioC([]string{"lia", "olia"}, true))
}
