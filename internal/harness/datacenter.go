package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// dcThroughput is the §VI-B1 experiment: every host sends one long-lived
// flow to a random other host (derangement); it reads each flow's goodput
// as a percentage of the optimal (line rate).
func dcThroughput(cfg Config, algo string, nsub int, seed int64, out *[]float64) Job {
	var ft *scenario.FatTree
	return Job{
		Build: func() *scenario.Net {
			ft = scenario.PaperFatTree(scenario.FatTreeConfig{K: cfg.FatTreeK},
				scenario.FatTreeLoad{Algorithm: algo, Subflows: nsub}, seed, cfg.DCWarmup, cfg.DCDuration)
			return ft.Net
		},
		Read: func(*scenario.Net, *scenario.RunReport) {
			secs := cfg.DCDuration.Sec()
			*out = make([]float64, len(ft.Long))
			for i, f := range ft.Long {
				(*out)[i] = stats.Mbps(f.WindowBytes(), secs) / ft.Cfg.RateMbps * 100
			}
		},
	}
}

// dcPoint identifies one FatTree long-flow configuration.
type dcPoint struct {
	algo string
	nsub int
}

// fig13a plans aggregate throughput (% of optimal) vs number of subflows
// for LIA, OLIA and single-path TCP: the §VI-B1 grid, one job per
// (point × seed), each reduced to its per-flow mean; per-seed means merge in
// seed order.
func fig13a(cfg Config) Plan {
	pts := []dcPoint{{"tcp", 1}}
	for _, nsub := range cfg.Subflows {
		pts = append(pts, dcPoint{"lia", nsub}, dcPoint{"olia", nsub})
	}
	return sweep(cfg, pts, func(p dcPoint, seed int64, out *[]float64) Job {
		return dcThroughput(cfg, p.algo, p.nsub, seed, out)
	}, func(per [][][]float64) (*Result, error) {
		agg := make([]stats.Summary, len(pts)) // over the per-seed means of per-flow %-of-optimal
		for i := range pts {
			for _, flows := range per[i] {
				var sum stats.Summary
				for _, v := range flows {
					sum.Add(v)
				}
				agg[i].Add(sum.Mean())
			}
		}
		r := &Result{
			Preamble: []string{fmt.Sprintf("FatTree K=%d (%d hosts), random permutation, long-lived flows",
				cfg.FatTreeK, cfg.FatTreeK*cfg.FatTreeK*cfg.FatTreeK/4)},
			Columns: []Column{
				{Name: "subflows"},
				{Name: "lia", Unit: "% of optimal"}, {Name: "olia", Unit: "% of optimal"},
				{Name: "tcp", Unit: "% of optimal"},
			},
		}
		for i, nsub := range cfg.Subflows {
			r.Rows = append(r.Rows, []Cell{
				IntCell(nsub),
				SummaryCell(agg[1+2*i]), SummaryCell(agg[2+2*i]), SummaryCell(agg[0]),
			})
		}
		return r, nil
	})
}

// textFig13a is the classic Fig. 13(a) layout.
func textFig13a(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	fmt.Fprintf(w, "%-9s | %s\n", "subflows", "aggregate throughput (% of optimal)")
	fmt.Fprintf(w, "%-9s | %-12s %-12s %-12s\n", "", "MPTCP-LIA", "MPTCP-OLIA", "TCP")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-9d | %5.1f±%-5.1f %5.1f±%-5.1f %5.1f±%-5.1f\n",
			c[0].Int(), c[1].Value, c[1].CI95, c[2].Value, c[2].CI95, c[3].Value, c[3].CI95)
	}
	return nil
}

// fig13bQuantiles are the ranked-distribution percentiles of Fig. 13(b).
var fig13bQuantiles = []float64{0, 10, 25, 50, 75, 90, 100}

// fig13b plans the ranked per-flow throughput distribution at the maximum
// subflow count (the paper uses 8).
func fig13b(cfg Config) Plan {
	nsub := cfg.Subflows[len(cfg.Subflows)-1]
	pts := []dcPoint{{"lia", nsub}, {"olia", nsub}, {"tcp", 1}}
	// One repetition at the base seed, as in the paper's ranked plot.
	return perPoint(pts, func(p dcPoint, out *[]float64) Job {
		return dcThroughput(cfg, p.algo, p.nsub, cfg.BaseSeed, out)
	}, func(perFlow [][]float64) (*Result, error) {
		r := &Result{
			Preamble: []string{fmt.Sprintf("FatTree K=%d, per-flow throughput percentiles (%% of optimal), %d subflows",
				cfg.FatTreeK, nsub)},
			Columns: []Column{{Name: "algo"}},
		}
		for _, q := range fig13bQuantiles {
			r.Columns = append(r.Columns, Column{Name: fmt.Sprintf("p%.0f", q), Unit: "% of optimal"})
		}
		for i, p := range pts {
			cells := []Cell{TextCell(p.algo)}
			for _, q := range fig13bQuantiles {
				cells = append(cells, NumCell(stats.Percentile(perFlow[i], q)))
			}
			r.Rows = append(r.Rows, cells)
		}
		return r, nil
	})
}

// textFig13b is the classic Fig. 13(b) layout.
func textFig13b(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	fmt.Fprintf(w, "%-10s |", "algo")
	for _, q := range fig13bQuantiles {
		fmt.Fprintf(w, " p%-5.0f", q)
	}
	fmt.Fprintln(w)
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s |", c[0].Text)
		for i := range fig13bQuantiles {
			fmt.Fprintf(w, " %-6.1f", c[1+i].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// shortFlowResult aggregates one §VI-B2 run.
type shortFlowResult struct {
	completions []float64 // seconds
	coreUtilPct float64
}

// dcShortFlows is the §VI-B2 experiment on the 4:1 oversubscribed fabric:
// one third of the hosts run long-lived flows (TCP or MPTCP at the largest
// subflow count); the rest send 70 KB TCP flows with Poisson 200 ms mean
// spacing. The window runs 2 s past the last arrival to drain tail
// completions.
func dcShortFlows(cfg Config, algo string, seed int64, res *shortFlowResult) Job {
	const drain = 2 * sim.Second
	var ft *scenario.FatTree
	return Job{
		Build: func() *scenario.Net {
			ft = scenario.PaperFatTree(scenario.FatTreeConfig{K: cfg.FatTreeK, Oversubscription: 4},
				scenario.FatTreeLoad{
					Algorithm: algo, Subflows: cfg.Subflows[len(cfg.Subflows)-1],
					ShortBytes: 70_000, ShortGap: 200 * sim.Millisecond, Drain: drain,
				}, seed, cfg.DCWarmup, cfg.DCDuration+drain)
			return ft.Net
		},
		Read: func(_ *scenario.Net, rep *scenario.RunReport) {
			core := ft.CoreLinks()
			var coreBytes int64
			for _, l := range core {
				coreBytes += rep.Queues[l].Window.SentBytes
			}
			secs := (cfg.DCDuration + drain).Sec()
			capacity := float64(len(core)) * (ft.Cfg.RateMbps * 1e6) / 8 * secs
			res.coreUtilPct = float64(coreBytes) / capacity * 100
			for _, g := range ft.Short {
				res.completions = append(res.completions, g.Done...)
			}
		},
	}
}

// dcShortAlgos is the §VI-B2 comparison set, in table order.
var dcShortAlgos = []string{"lia", "olia", "tcp"}

// planDCShortFlows plans the short-flow experiment for every algorithm, one
// job per (algorithm × seed); result folds the per-seed results, in seed
// order per algorithm.
func planDCShortFlows(result func(cfg Config, res [][]shortFlowResult) (*Result, error)) func(Config) Plan {
	return func(cfg Config) Plan {
		return sweep(cfg, dcShortAlgos, func(algo string, seed int64, res *shortFlowResult) Job {
			return dcShortFlows(cfg, algo, seed, res)
		}, func(res [][]shortFlowResult) (*Result, error) { return result(cfg, res) })
	}
}

// table3 folds short-flow completion statistics and core utilization.
func table3(cfg Config, res [][]shortFlowResult) (*Result, error) {
	r := &Result{
		Preamble: []string{fmt.Sprintf(
			"4:1 oversubscribed FatTree K=%d; 1/3 hosts long flows, rest 70KB shorts every 200ms", cfg.FatTreeK)},
		Columns: []Column{
			{Name: "algorithm"}, {Name: "finish", Unit: "ms"},
			{Name: "core_util", Unit: "%"}, {Name: "flows"},
		},
		Footer: []string{"(paper: LIA 98±57 ms / 63.2%; OLIA 90±42 ms / 63%; TCP 73±57 ms / 39.3%)"},
	}
	for i, algo := range dcShortAlgos {
		var sum stats.Summary
		var util stats.Summary
		var count int
		for _, sr := range res[i] {
			for _, c := range sr.completions {
				sum.Add(c * 1000)
			}
			util.Add(sr.coreUtilPct)
			count += len(sr.completions)
		}
		name := "MPTCP-" + algo
		if algo == "tcp" {
			name = "TCP"
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(name), SummaryCell(sum), SummaryCell(util), IntCell(count),
		})
	}
	return r, nil
}

// textTable3 is the classic Table III layout (finish times as mean ± stdev,
// as the paper reports them).
func textTable3(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	fmt.Fprintf(w, "%-12s | %-22s | %-10s | %s\n", "algorithm", "short-flow finish (ms)", "core util", "flows")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-12s | %6.0f ± %-6.0f        | %5.1f%%     | %d\n",
			c[0].Text, c[1].Value, c[1].Stdev, c[2].Value, c[3].Int())
	}
	writeLines(w, r.Footer)
	return nil
}

// fig14Buckets is the completion-time histogram shape: 20 ms buckets over
// 0–300 ms.
const fig14Buckets = 15

// fig14 folds the completion-time PDFs.
func fig14(_ Config, res [][]shortFlowResult) (*Result, error) {
	r := &Result{
		Preamble: []string{"Short-flow completion-time PDF (1/s), buckets of 20 ms over 0-300 ms"},
		Columns:  []Column{{Name: "algo"}},
	}
	for b := 0; b < fig14Buckets; b++ {
		r.Columns = append(r.Columns, Column{Name: fmt.Sprintf("p_%dms", b*20+10), Unit: "1/s"})
	}
	for i, algo := range dcShortAlgos {
		h := stats.NewHistogram(0, 0.3, fig14Buckets)
		for _, sr := range res[i] {
			for _, c := range sr.completions {
				h.Add(c)
			}
		}
		cells := []Cell{TextCell(algo)}
		for _, d := range h.PDF() {
			cells = append(cells, NumCell(d))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textFig14 is the classic Fig. 14 layout.
func textFig14(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	fmt.Fprintf(w, "%-10s |", "ms")
	for b := 0; b < fig14Buckets; b++ {
		fmt.Fprintf(w, " %5d", b*20+10)
	}
	fmt.Fprintln(w)
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s |", c[0].Text)
		for b := 0; b < fig14Buckets; b++ {
			fmt.Fprintf(w, " %5.2f", c[1+b].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "fig13a",
		PaperRef: "Figure 13(a)",
		Title:    "FatTree aggregate throughput vs number of subflows: MPTCP (either coupling) exploits path diversity, TCP cannot",
		Plan:     fig13a,
		Text:     textFig13a,
	})
	register(&Experiment{
		ID:       "fig13b",
		PaperRef: "Figure 13(b)",
		Title:    "FatTree ranked per-flow throughput: LIA and OLIA provide similar fairness, far above TCP",
		Plan:     fig13b,
		Text:     textFig13b,
	})
	register(&Experiment{
		ID:       "fig14",
		PaperRef: "Figure 14",
		Title:    "Short-flow completion-time PDF in a dynamic oversubscribed fabric: OLIA shifts mass to faster completions than LIA",
		Plan:     planDCShortFlows(fig14),
		Text:     textFig14,
	})
	register(&Experiment{
		ID:       "table3",
		PaperRef: "Table III",
		Title:    "Short-flow completion times and core utilization: OLIA ≈10% faster mean than LIA at equal utilization",
		Plan:     planDCShortFlows(table3),
		Text:     textTable3,
	})
}
