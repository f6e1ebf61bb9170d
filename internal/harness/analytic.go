package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/fixedpoint"
)

// fig4Sweep is the CX/CT grid of Figures 4(a,b) and 17.
var fig4Sweep = []float64{0.1, 0.25, 0.4, 0.5, 5.0 / 9.0, 0.6, 0.75, 0.9, 1.0, 1.25, 1.5}

// ratioRows are closed-form rows, one per capacity ratio.
func ratioRows(ratios []float64) []row {
	rows := make([]row, len(ratios))
	for i, r := range ratios {
		rows[i].labels = []Cell{NumCell(r)}
	}
	return rows
}

// analyticCols are the shared shape of the Scenario B/C analytic curves: a
// capacity ratio and two normalized-throughput pairs, each pair computed
// by f at the row's ratio for the first and the second variant.
func analyticCols(ratio, a1, a2, b1, b2 string, f func(c []Cell, ratio float64, second bool) (x, y float64, err error)) []col {
	// pick is the calc of the column back cells after the ratio column.
	pick := func(back int, second, y bool) func(c []Cell) (float64, error) {
		return func(c []Cell) (float64, error) {
			v1, v2, err := f(c, c[len(c)-1-back].Value, second)
			if y {
				return v2, err
			}
			return v1, err
		}
	}
	return []col{
		{name: ratio, verb: "%-7.3f"},
		{name: a1, unit: "norm", verb: " | %9.3f", calc: pick(0, false, false)},
		{name: a2, unit: "norm", verb: " / %9.3f", calc: pick(1, false, true)},
		{name: b1, unit: "norm", verb: "   | %9.3f", calc: pick(2, true, false)},
		{name: b2, unit: "norm", verb: " / %9.3f", calc: pick(3, true, true)},
	}
}

// analyticHead is the header of the two-pair analytic layout.
func analyticHead(ratio, pairA, pairB string) string {
	return fmt.Sprintf("%-7s | %-23s | %-23s\n", ratio, pairA, pairB)
}

// scenarioBCols are the Blue and Red normalized throughputs of Scenario B
// (CT = 36 Mb/s, 15+15 users) before and after the Red upgrade, from
// model at CX = ratio·CT.
func scenarioBCols(model func(c []Cell, cx float64, redMultipath bool) (fixedpoint.BResult, error)) []col {
	return analyticCols("cx_over_ct", "single_blue", "single_red", "multi_blue", "multi_red",
		func(c []Cell, ratio float64, multipath bool) (float64, float64, error) {
			b, err := model(c, ratio*36, multipath)
			return b.BlueNorm, b.RedNorm, err
		})
}

var (
	// fig4a is the analytic LIA curves of Figure 4(a): normalized
	// throughputs of Blue and Red users before/after the Red upgrade, as a
	// function of CX/CT (CT = 36 Mb/s, 15+15 users, RTT 150 ms).
	fig4a = &table{
		head: analyticHead("CX/CT", "Red single: blue / red", "Red multipath: blue / red"),
		cols: scenarioBCols(func(_ []Cell, cx float64, redMultipath bool) (fixedpoint.BResult, error) {
			return fixedpoint.ScenarioBLIA(15, cx, 36, redMultipath, fixedpoint.PaperRTT)
		}),
		rows: ratioRows(fig4Sweep),
	}
	// fig4b is the optimum-with-probing counterpart (Figure 4(b)).
	fig4b = &table{
		head: fig4a.head,
		cols: scenarioBCols(func(_ []Cell, cx float64, redMultipath bool) (fixedpoint.BResult, error) {
			return fixedpoint.ScenarioBOptimum(15, cx, 36, redMultipath, fixedpoint.PaperRTT), nil
		}),
		rows: fig4a.rows,
	}
	// fig5b is the analytic Scenario C curves for N1 = N2 (Figure 5(b)):
	// LIA fixed point (solid) vs optimum with probing cost (dashed).
	fig5b = &table{
		head: analyticHead("C1/C2", "LIA: multi / single", "Optimum: multi / single"),
		cols: analyticCols("c1_over_c2", "lia_multi", "lia_single", "optimum_multi", "optimum_single",
			func(_ []Cell, ratio float64, optimum bool) (float64, float64, error) {
				if optimum {
					o := fixedpoint.ScenarioCOptimum(10, 10, ratio, 1.0, fixedpoint.PaperRTT)
					return o.MultiNorm, o.SingleNorm, nil
				}
				l, err := fixedpoint.ScenarioCLIA(10, 10, ratio, 1.0, fixedpoint.PaperRTT)
				return l.MultiNorm, l.SingleNorm, err
			}),
		rows: ratioRows([]float64{0.1, 0.2, 1.0 / 3, 0.5, 0.75, 1.0, 1.25, 1.5}),
	}
	// fig17 is the optimum-with-probing allocation of Scenario B at two RTTs
	// (Figure 17): the smaller the RTT, the higher the probing cost. Its
	// rows are labelled with the RTT in ms and the ratio.
	fig17 = &table{
		cols: append([]col{
			{name: "rtt", unit: "ms"},
			{name: "probe_rate", unit: "Mb/s", calc: func(c []Cell) (float64, error) {
				return fixedpoint.ProbeRate(c[0].Value / 1000), nil
			}},
		}, scenarioBCols(func(c []Cell, cx float64, redMultipath bool) (fixedpoint.BResult, error) {
			return fixedpoint.ScenarioBOptimum(15, cx, 36, redMultipath, c[0].Value/1000), nil
		})...),
		rows: append(rttRows(100, fig4Sweep), rttRows(25, fig4Sweep)...),
	}
)

// rttRows are fig17's closed-form rows at one RTT, labelled with it.
func rttRows(rttMs float64, ratios []float64) []row {
	rows := ratioRows(ratios)
	for i := range rows {
		rows[i].labels = append([]Cell{NumCell(rttMs)}, rows[i].labels...)
	}
	return rows
}

// textFig17 renders the per-RTT sections of Figure 17: a section banner
// whenever the RTT column changes, then the shared analytic layout.
func textFig17(r *Result, w io.Writer) error {
	prevRTT := -1.0
	for _, c := range r.Rows {
		if c[0].Value != prevRTT {
			prevRTT = c[0].Value
			fmt.Fprintf(w, "RTT = %.0f ms (probe rate %.2f Mb/s per path)\n", c[0].Value, c[1].Value)
			fmt.Fprint(w, fig4a.head)
		}
		fmt.Fprintf(w, "%-7.3f | %9.3f / %9.3f   | %9.3f / %9.3f\n",
			c[2].Value, c[3].Value, c[4].Value, c[5].Value, c[6].Value)
	}
	return nil
}

func init() {
	registerTable("fig4a", "Figure 4(a)",
		"Scenario B analytic: LIA normalized throughput vs CX/CT — upgrading Red decreases performance for everyone", fig4a)
	registerTable("fig4b", "Figure 4(b)",
		"Scenario B analytic: optimum with probing cost — the upgrade penalty is only the probe traffic (≈3%)", fig4b)
	registerTable("fig5b", "Figure 5(b)",
		"Scenario C analytic, N1=N2: LIA vs optimum with probing cost; LIA turns unfair beyond C1 = C2/3", fig5b)
	register(&Experiment{
		ID:       "fig17",
		PaperRef: "Figure 17",
		Title:    "Scenario B optimum with probing for RTT = 100 ms and 25 ms",
		Plan:     fig17.plan,
		Text:     textFig17,
	})
}
