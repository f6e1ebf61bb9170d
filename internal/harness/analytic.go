package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/fixedpoint"
)

// fig4Sweep is the CX/CT grid of Figures 4(a,b) and 17.
var fig4Sweep = []float64{0.1, 0.25, 0.4, 0.5, 5.0 / 9.0, 0.6, 0.75, 0.9, 1.0, 1.25, 1.5}

// analyticColumns is the shared shape of the Scenario B/C analytic curves:
// a capacity ratio and two normalized-throughput pairs.
func analyticColumns(ratio, a1, a2, b1, b2 string) []Column {
	return []Column{
		{Name: ratio},
		{Name: a1, Unit: "norm"}, {Name: a2, Unit: "norm"},
		{Name: b1, Unit: "norm"}, {Name: b2, Unit: "norm"},
	}
}

// textAnalytic renders the shared two-pair analytic table layout; the
// header labels are fixed per experiment.
func textAnalytic(ratio, pairA, pairB string) func(r *Result, w io.Writer) error {
	return func(r *Result, w io.Writer) error {
		fmt.Fprintf(w, "%-7s | %-23s | %-23s\n", ratio, pairA, pairB)
		for _, c := range r.Rows {
			fmt.Fprintf(w, "%-7.3f | %9.3f / %9.3f   | %9.3f / %9.3f\n",
				c[0].Value, c[1].Value, c[2].Value, c[3].Value, c[4].Value)
		}
		return nil
	}
}

// fig4a collects the analytic LIA curves of Figure 4(a): normalized
// throughputs of Blue and Red users before/after the Red upgrade, as a
// function of CX/CT (CT = 36 Mb/s, 15+15 users, RTT 150 ms).
func fig4a() (*Result, error) {
	const ct = 36.0
	r := &Result{Columns: analyticColumns("cx_over_ct",
		"single_blue", "single_red", "multi_blue", "multi_red")}
	for _, ratio := range fig4Sweep {
		sp, err := fixedpoint.ScenarioBLIA(15, ratio*ct, ct, false, fixedpoint.PaperRTT)
		if err != nil {
			return nil, err
		}
		mp, err := fixedpoint.ScenarioBLIA(15, ratio*ct, ct, true, fixedpoint.PaperRTT)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []Cell{
			NumCell(ratio),
			NumCell(sp.BlueNorm), NumCell(sp.RedNorm),
			NumCell(mp.BlueNorm), NumCell(mp.RedNorm),
		})
	}
	return r, nil
}

// fig4b collects the optimum-with-probing counterpart (Figure 4(b)).
func fig4b() (*Result, error) {
	const ct = 36.0
	r := &Result{Columns: analyticColumns("cx_over_ct",
		"single_blue", "single_red", "multi_blue", "multi_red")}
	for _, ratio := range fig4Sweep {
		sp := fixedpoint.ScenarioBOptimum(15, ratio*ct, ct, false, fixedpoint.PaperRTT)
		mp := fixedpoint.ScenarioBOptimum(15, ratio*ct, ct, true, fixedpoint.PaperRTT)
		r.Rows = append(r.Rows, []Cell{
			NumCell(ratio),
			NumCell(sp.BlueNorm), NumCell(sp.RedNorm),
			NumCell(mp.BlueNorm), NumCell(mp.RedNorm),
		})
	}
	return r, nil
}

// fig5b collects the analytic Scenario C curves for N1 = N2 (Figure 5(b)):
// LIA fixed point (solid) vs optimum with probing cost (dashed).
func fig5b() (*Result, error) {
	r := &Result{Columns: analyticColumns("c1_over_c2",
		"lia_multi", "lia_single", "optimum_multi", "optimum_single")}
	for _, ratio := range []float64{0.1, 0.2, 1.0 / 3, 0.5, 0.75, 1.0, 1.25, 1.5} {
		lia, err := fixedpoint.ScenarioCLIA(10, 10, ratio, 1.0, fixedpoint.PaperRTT)
		if err != nil {
			return nil, err
		}
		opt := fixedpoint.ScenarioCOptimum(10, 10, ratio, 1.0, fixedpoint.PaperRTT)
		r.Rows = append(r.Rows, []Cell{
			NumCell(ratio),
			NumCell(lia.MultiNorm), NumCell(lia.SingleNorm),
			NumCell(opt.MultiNorm), NumCell(opt.SingleNorm),
		})
	}
	return r, nil
}

// fig17 collects the optimum-with-probing allocation of Scenario B at two
// RTTs (Figure 17): the smaller the RTT, the higher the probing cost.
func fig17() (*Result, error) {
	const ct = 36.0
	r := &Result{Columns: append([]Column{
		{Name: "rtt", Unit: "ms"}, {Name: "probe_rate", Unit: "Mb/s"},
	}, analyticColumns("cx_over_ct",
		"single_blue", "single_red", "multi_blue", "multi_red")...)}
	for _, rtt := range []float64{0.1, 0.025} {
		for _, ratio := range fig4Sweep {
			sp := fixedpoint.ScenarioBOptimum(15, ratio*ct, ct, false, rtt)
			mp := fixedpoint.ScenarioBOptimum(15, ratio*ct, ct, true, rtt)
			r.Rows = append(r.Rows, []Cell{
				NumCell(rtt * 1000), NumCell(fixedpoint.ProbeRate(rtt)), NumCell(ratio),
				NumCell(sp.BlueNorm), NumCell(sp.RedNorm),
				NumCell(mp.BlueNorm), NumCell(mp.RedNorm),
			})
		}
	}
	return r, nil
}

// textFig17 renders the per-RTT sections of Figure 17: a section banner
// whenever the RTT column changes, then the shared analytic layout.
func textFig17(r *Result, w io.Writer) error {
	prevRTT := -1.0
	for _, c := range r.Rows {
		if c[0].Value != prevRTT {
			prevRTT = c[0].Value
			fmt.Fprintf(w, "RTT = %.0f ms (probe rate %.2f Mb/s per path)\n", c[0].Value, c[1].Value)
			fmt.Fprintf(w, "%-7s | %-23s | %-23s\n", "CX/CT",
				"Red single: blue / red", "Red multipath: blue / red")
		}
		fmt.Fprintf(w, "%-7.3f | %9.3f / %9.3f   | %9.3f / %9.3f\n",
			c[2].Value, c[3].Value, c[4].Value, c[5].Value, c[6].Value)
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "fig4a",
		PaperRef: "Figure 4(a)",
		Title:    "Scenario B analytic: LIA normalized throughput vs CX/CT — upgrading Red decreases performance for everyone",
		Plan:     closedForm(fig4a),
		Text:     textAnalytic("CX/CT", "Red single: blue / red", "Red multipath: blue / red"),
	})
	register(&Experiment{
		ID:       "fig4b",
		PaperRef: "Figure 4(b)",
		Title:    "Scenario B analytic: optimum with probing cost — the upgrade penalty is only the probe traffic (≈3%)",
		Plan:     closedForm(fig4b),
		Text:     textAnalytic("CX/CT", "Red single: blue / red", "Red multipath: blue / red"),
	})
	register(&Experiment{
		ID:       "fig5b",
		PaperRef: "Figure 5(b)",
		Title:    "Scenario C analytic, N1=N2: LIA vs optimum with probing cost; LIA turns unfair beyond C1 = C2/3",
		Plan:     closedForm(fig5b),
		Text:     textAnalytic("C1/C2", "LIA: multi / single", "Optimum: multi / single"),
	})
	register(&Experiment{
		ID:       "fig17",
		PaperRef: "Figure 17",
		Title:    "Scenario B optimum with probing for RTT = 100 ms and 25 ms",
		Plan:     closedForm(fig17),
		Text:     textFig17,
	})
}
