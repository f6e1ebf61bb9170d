package harness

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// dcThroughput is the §VI-B1 experiment: every host sends one long-lived
// flow to a random other host (derangement); it reads each flow's goodput
// as a percentage of the optimal (line rate), one reading per flow. nsub
// 0 runs the largest subflow count of the configuration.
func dcThroughput(algo string, nsub int) network {
	return func(cfg Config, seed int64, out *[]float64) Job {
		load := scenario.FatTreeLoad{Algorithm: algo, Subflows: nsub}
		if nsub == 0 {
			load.Subflows = cfg.Subflows[len(cfg.Subflows)-1]
		}
		sp := scenario.PaperFatTree(scenario.FatTreeConfig{K: cfg.FatTreeK}, load, seed, cfg.DCWarmup, cfg.DCDuration)
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			// Every host sends one long flow, so the report is theirs; a
			// host's first link runs at the line rate.
			secs, rate := cfg.DCDuration.Sec(), sp.Links[0].RateMbps
			*out = make([]float64, len(rep.Flows))
			for i := range rep.Flows {
				(*out)[i] = stats.Mbps(rep.Flows[i].WindowBytes, secs) / rate * 100
			}
		}}
	}
}

// fig13a plans aggregate throughput (% of optimal) vs number of subflows
// for LIA, OLIA and single-path TCP: the §VI-B1 grid, one job per
// (point × seed), each reduced to its per-flow mean, whose seed summaries
// it pivots into one row per subflow count.
func fig13a(cfg Config) Plan {
	rows := []row{{labels: []Cell{TextCell("tcp")}, run: dcThroughput("tcp", 1)}}
	for _, nsub := range cfg.Subflows {
		rows = append(rows,
			row{labels: []Cell{TextCell("lia")}, run: dcThroughput("lia", nsub)},
			row{labels: []Cell{TextCell("olia")}, run: dcThroughput("olia", nsub)})
	}
	t := &table{
		preamble: []string{fmt.Sprintf("FatTree K=%d (%d hosts), random permutation, long-lived flows",
			cfg.FatTreeK, cfg.FatTreeK*cfg.FatTreeK*cfg.FatTreeK/4)},
		cols: []col{{name: "algo"}, {name: "mean", read: func(flows []float64) float64 {
			var sum stats.Summary
			for _, v := range flows {
				sum.Add(v)
			}
			return sum.Mean()
		}}},
		rows:   rows,
		seeded: true,
		finish: func(cfg Config, r *Result, _ [][][]float64) error {
			agg := r.Rows
			r.Columns = []Column{
				{Name: "subflows"},
				{Name: "lia", Unit: "% of optimal"}, {Name: "olia", Unit: "% of optimal"},
				{Name: "tcp", Unit: "% of optimal"},
			}
			r.Rows = make([][]Cell, len(cfg.Subflows))
			for i, nsub := range cfg.Subflows {
				r.Rows[i] = []Cell{IntCell(nsub), agg[1+2*i][1], agg[2+2*i][1], agg[0][1]}
			}
			return nil
		},
	}
	return t.plan(cfg)
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

// fig13b is the ranked per-flow throughput distribution at the maximum
// subflow count (the paper uses 8), one repetition at the base seed, as in
// the paper's ranked plot.
var fig13b = func() *table {
	t := &table{
		cols: []col{{name: "algo", verb: "%-10s |"}},
		rows: []row{
			{labels: []Cell{TextCell("lia")}, run: dcThroughput("lia", 0)},
			{labels: []Cell{TextCell("olia")}, run: dcThroughput("olia", 0)},
			{labels: []Cell{TextCell("tcp")}, run: dcThroughput("tcp", 1)},
		},
		finish: func(cfg Config, r *Result, _ [][][]float64) error {
			r.Preamble = []string{fmt.Sprintf("FatTree K=%d, per-flow throughput percentiles (%% of optimal), %d subflows",
				cfg.FatTreeK, cfg.Subflows[len(cfg.Subflows)-1])}
			return nil
		},
	}
	head := fmt.Sprintf("%-10s |", "algo")
	for _, q := range []float64{0, 10, 25, 50, 75, 90, 100} {
		head += fmt.Sprintf(" p%-5.0f", q)
		t.cols = append(t.cols, col{name: fmt.Sprintf("p%.0f", q), unit: "% of optimal", verb: " %-6.1f",
			read: func(flows []float64) float64 { return stats.Percentile(flows, q) }})
	}
	t.head = head + "\n"
	return t
}()

// dcShortFlows is the §VI-B2 experiment on the 4:1 oversubscribed fabric:
// one third of the hosts run long-lived flows (TCP or MPTCP at the largest
// subflow count); the rest send 70 KB TCP flows with Poisson 200 ms mean
// spacing. The window runs 2 s past the last arrival to drain tail
// completions. The readings are the core utilization (%) and then every
// short flow's completion time (s).
func dcShortFlows(algo string) network {
	const drain = 2 * sim.Second
	return func(cfg Config, seed int64, out *[]float64) Job {
		sp := scenario.PaperFatTree(scenario.FatTreeConfig{K: cfg.FatTreeK, Oversubscription: 4},
			scenario.FatTreeLoad{
				Algorithm: algo, Subflows: cfg.Subflows[len(cfg.Subflows)-1],
				ShortBytes: 70_000, ShortGap: 200 * sim.Millisecond, Drain: drain,
			}, seed, cfg.DCWarmup, cfg.DCDuration+drain)
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			core := scenario.FatTreeConfig{K: cfg.FatTreeK}.CoreLinks()
			var coreBytes int64
			for _, l := range core {
				coreBytes += rep.Queues[l].Window.SentBytes
			}
			secs := (cfg.DCDuration + drain).Sec()
			capacity := float64(len(core)) * (sp.Links[core[0]].RateMbps * 1e6) / 8 * secs
			*out = append(*out, float64(coreBytes)/capacity*100)
			*out = shortCompletions(*out, sp, rep)
		}}
	}
}

// shortCompletions appends the completion time (s) of every finished short
// flow of the fat tree sp ran as rep, pooled per sending host in host order
// and, within a host, in completion order. A short flow's one path is its
// host's, and paths come in host order.
func shortCompletions(out []float64, sp *scenario.Spec, rep *scenario.RunReport) []float64 {
	done := make([]int, 0, len(rep.Flows))
	for i := range rep.Flows {
		if sp.Flows[i].FlowBytes > 0 && rep.Flows[i].CompletionSec > 0 {
			done = append(done, i)
		}
	}
	end := func(i int) float64 { return sp.Flows[i].StartSec + rep.Flows[i].CompletionSec }
	slices.SortStableFunc(done, func(a, b int) int {
		return cmp.Or(cmp.Compare(sp.Flows[a].Paths[0], sp.Flows[b].Paths[0]), cmp.Compare(end(a), end(b)))
	})
	for _, i := range done {
		out = append(out, rep.Flows[i].CompletionSec)
	}
	return out
}

// dcShortRows are the §VI-B2 comparison set, in table order.
func dcShortRows(names ...string) []row {
	rows := make([]row, len(names))
	for i, algo := range []string{"lia", "olia", "tcp"} {
		rows[i] = row{labels: []Cell{TextCell(names[i])}, run: dcShortFlows(algo)}
	}
	return rows
}

// table3 is short-flow completion statistics, pooled over every seed's
// flows and printed as mean ± stdev as the paper reports them, and the
// seed summary of the core utilization.
var table3 = &table{
	head: fmt.Sprintf("%-12s | %-22s | %-10s | %s\n", "algorithm", "short-flow finish (ms)", "core util", "flows"),
	cols: []col{
		{name: "algorithm", verb: "%-12s"},
		{name: "finish", unit: "ms", verb: " | %6.0f ± %-6.0f        ", pool: pooled(1, 1000)},
		{name: "core_util", unit: "%", verb: "| %5.1f%%     ", read: at(0)},
		{name: "flows", verb: "| %d", read: func(o []float64) float64 { return float64(len(o) - 1) }, count: true},
	},
	rows:   dcShortRows("MPTCP-lia", "MPTCP-olia", "TCP"),
	seeded: true,
	footer: []string{"(paper: LIA 98±57 ms / 63.2%; OLIA 90±42 ms / 63%; TCP 73±57 ms / 39.3%)"},
	finish: func(cfg Config, r *Result, _ [][][]float64) error {
		r.Preamble = []string{fmt.Sprintf(
			"4:1 oversubscribed FatTree K=%d; 1/3 hosts long flows, rest 70KB shorts every 200ms", cfg.FatTreeK)}
		return nil
	},
}

// fig14Buckets is the completion-time histogram shape: 20 ms buckets over
// 0–300 ms.
const fig14Buckets = 15

// fig14 is the completion-time PDFs, one histogram per algorithm over
// every seed's flows.
var fig14 = func() *table {
	t := &table{
		preamble: []string{"Short-flow completion-time PDF (1/s), buckets of 20 ms over 0-300 ms"},
		head:     fmt.Sprintf("%-10s |", "ms"),
		cols:     []col{{name: "algo", verb: "%-10s |"}},
		rows:     dcShortRows("lia", "olia", "tcp"),
		seeded:   true,
	}
	for b := 0; b < fig14Buckets; b++ {
		t.head += fmt.Sprintf(" %5d", b*20+10)
		t.cols = append(t.cols, col{name: fmt.Sprintf("p_%dms", b*20+10), unit: "1/s", verb: " %5.2f",
			pool: func(runs [][]float64) Cell {
				h := stats.NewHistogram(0, 0.3, fig14Buckets)
				for _, o := range runs {
					for _, c := range o[1:] {
						h.Add(c)
					}
				}
				return NumCell(h.PDF()[b])
			}})
	}
	t.head += "\n"
	return t
}()

func init() {
	register(&Experiment{
		ID:       "fig13a",
		PaperRef: "Figure 13(a)",
		Title:    "FatTree aggregate throughput vs number of subflows: MPTCP (either coupling) exploits path diversity, TCP cannot",
		Plan:     fig13a,
		Text:     textFig13a,
	})
	registerTable("fig13b", "Figure 13(b)",
		"FatTree ranked per-flow throughput: LIA and OLIA provide similar fairness, far above TCP", fig13b)
	registerTable("fig14", "Figure 14",
		"Short-flow completion-time PDF in a dynamic oversubscribed fabric: OLIA shifts mass to faster completions than LIA", fig14)
	registerTable("table3", "Table III",
		"Short-flow completion times and core utilization: OLIA ≈10% faster mean than LIA at equal utilization", table3)
}
