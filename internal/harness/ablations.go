package harness

import (
	"fmt"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// twoLinkSpec is the Fig. 6 rig every two-link experiment starts from:
// 10 Mb/s links shared with nTCP1 and nTCP2 TCP flows, one seed
// (cfg.BaseSeed), the multipath user's two windows and, under OLIA, its α
// traced every 250 ms. Every variant carries the same trace, so a variant
// that two experiments list is one run.
func twoLinkSpec(cfg Config, algo string, nTCP1, nTCP2 int) *scenario.Spec {
	sp := scenario.PaperTwoLink(10, nTCP1, nTCP2, algo, cfg.BaseSeed, cfg.Warmup.Sec(), cfg.Duration.Sec())
	sp.Trace = &scenario.TraceSpec{PeriodMs: 250, Probes: []string{"cwnd mp 0 0", "cwnd mp 0 1"}}
	if algo == "olia" {
		sp.Trace.Probes = append(sp.Trace.Probes, "alpha mp 0 0", "alpha mp 0 1")
	}
	return sp
}

// twoLinkMP is the two-link spec's multipath user, for ablations to vary.
func twoLinkMP(sp *scenario.Spec) *scenario.FlowSpec { return &sp.Flows[len(sp.Flows)-1] }

// groupMbps is the goodput of a group's summed measured-window bytes over
// secs: a sum of per-flow rates is not the rate of the summed bytes.
func groupMbps(secs float64, groups ...[]scenario.FlowReport) float64 {
	var total int64
	for _, g := range groups {
		for i := range g {
			total += g[i].WindowBytes
		}
	}
	return stats.Mbps(total, secs)
}

// runTwoLink is one two-link rig configuration — the "one point →
// readings" unit every ablation fans out over. vary changes the spec of
// the rig (algo, nTCP1 and nTCP2 TCP flows). The readings are the
// multipath user's goodput per link (0, 1), the mean background TCP
// goodput per link (2, 3), all in Mb/s, and the dominance-flip count of
// the traced windows (4, flappiness).
func runTwoLink(algo string, nTCP1, nTCP2 int, vary func(sp *scenario.Spec)) network {
	return func(cfg Config, _ int64, out *[]float64) Job {
		sp := twoLinkSpec(cfg, algo, nTCP1, nTCP2)
		vary(sp)
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			mp, w := rep.Group(sp, "mp")[0], rep.Trace.V
			secs := cfg.Duration.Sec()
			o := []float64{mp.PathMbps[0], mp.PathMbps[1], 0, 0, float64(flips(w[0], w[1]))}
			if bg := rep.Group(sp, "tcp1"); len(bg) > 0 {
				o[2] = groupMbps(secs, bg) / float64(len(bg))
			}
			if bg := rep.Group(sp, "tcp2"); len(bg) > 0 {
				o[3] = groupMbps(secs, bg) / float64(len(bg))
			}
			*out = o
		}}
	}
}

// The two-link readings the ablation tables print.
var (
	mpTotal = func(o []float64) float64 { return o[0] + o[1] }
	tcpMean = func(o []float64) float64 { return (o[2] + o[3]) / 2 }
)

// labelled is one row per label, each running its variant of the rig.
func labelled(labels []string, run func(i int) network) []row {
	rows := make([]row, len(labels))
	for i, l := range labels {
		rows[i] = row{labels: []Cell{TextCell(l)}, run: run(i)}
	}
	return rows
}

// algoRows runs the rig of runTwoLink once per algorithm, with path 2's
// one-way delay set to delayMs when it is not 0.
func algoRows(algos []string, delayMs float64) []row {
	return labelled(algos, func(i int) network {
		return runTwoLink(algos[i], 5, 5, func(sp *scenario.Spec) {
			if delayMs != 0 {
				sp.Paths[1].DelayMs = delayMs
			}
		})
	})
}

// oliaRows runs OLIA on the rig with the multipath user varied by vary for
// each label.
func oliaRows(labels []string, nTCP2 int, vary func(i int, mp *scenario.FlowSpec)) []row {
	return labelled(labels, func(i int) network {
		return runTwoLink("olia", 5, nTCP2, func(sp *scenario.Spec) { vary(i, twoLinkMP(sp)) })
	})
}

var (
	// ablationEpsilon sweeps the ε-family of §II on the symmetric two-link
	// rig: ε=0 (fully coupled, Pareto-optimal but flappy), ε=1 (LIA), OLIA,
	// and ε=2 (uncoupled, grabs two fair shares).
	ablationEpsilon = &table{
		preamble: []string{"Symmetric two-link rig (Fig. 6a): 10 Mb/s links, 5 TCP flows each; fair share 1.67 Mb/s"},
		head: fmt.Sprintf("%-14s | %-9s %-9s %-9s | %-9s | %s\n",
			"algorithm", "mp total", "mp link1", "mp link2", "TCP mean", "w1/w2 flips"),
		cols: []col{
			{name: "algorithm", verb: "%-14s"},
			{name: "mp_total", unit: "Mb/s", verb: " | %-9.2f", read: mpTotal},
			{name: "mp_link1", unit: "Mb/s", verb: " %-9.2f", read: at(0)},
			{name: "mp_link2", unit: "Mb/s", verb: " %-9.2f", read: at(1)},
			{name: "tcp_mean", unit: "Mb/s", verb: " | %-9.2f", read: tcpMean},
			{name: "flips", verb: " | %d", read: at(4)},
		},
		rows:   algoRows([]string{"fullycoupled", "lia", "olia", "uncoupled"}, 0),
		footer: []string{"(expected: uncoupled ≈ 2 shares; lia/olia ≈ 1 share; fullycoupled flips most)"},
	}
	// ablationQueue reruns the asymmetric rig under RED and DropTail: the
	// paper's conclusions do not depend on the queueing discipline (§VI-B
	// studies drop-tail in htsim).
	ablationQueue = &table{
		preamble: []string{"Asymmetric rig (Fig. 6b): link2 shared with 10 TCP flows; congested-path traffic by discipline"},
		head: fmt.Sprintf("%-10s %-10s | %-10s %-10s | %s\n",
			"queue", "algorithm", "mp link1", "mp link2", "TCP mean on link2"),
		cols: []col{
			{name: "queue", verb: "%-10s"}, {name: "algorithm", verb: " %-10s"},
			{name: "mp_link1", unit: "Mb/s", verb: " | %-10.2f", read: at(0)},
			{name: "mp_link2", unit: "Mb/s", verb: " %-10.2f", read: at(1)},
			{name: "tcp_link2", unit: "Mb/s", verb: " | %.2f", read: at(3)},
		},
		rows:   queueRows(),
		footer: []string{"(expected: OLIA's link2 traffic stays near the probing floor under both disciplines)"},
	}
	// ablationSsthresh compares the paper's subflow setting (ssthresh = 1
	// MSS, §IV-B) with normal slow start on the asymmetric rig:
	// slow-starting subflows repeatedly blast the congested path.
	ablationSsthresh = &table{
		preamble: []string{"Asymmetric rig: effect of the §IV-B subflow ssthresh=1 setting"},
		head:     fmt.Sprintf("%-22s | %-10s %-10s | %s\n", "subflow start", "mp link1", "mp link2", "TCP mean on link2"),
		cols: []col{
			{name: "subflow_start", verb: "%-22s"},
			{name: "mp_link1", unit: "Mb/s", verb: " | %-10.2f", read: at(0)},
			{name: "mp_link2", unit: "Mb/s", verb: " %-10.2f", read: at(1)},
			{name: "tcp_link2", unit: "Mb/s", verb: " | %.2f", read: at(3)},
		},
		rows: oliaRows([]string{"ssthresh=1 (paper)", "normal slow start"}, 10, func(i int, mp *scenario.FlowSpec) {
			mp.KeepSlowStart = i == 1
		}),
	}
	// ablationCap compares OLIA with and without the per-ACK Reno cap (goal
	// 2's "never more aggressive than TCP on any path").
	ablationCap = &table{
		preamble: []string{"Symmetric rig: effect of the per-ACK increase cap (RFC 6356 goal 2)"},
		head:     fmt.Sprintf("%-14s | %-10s | %s\n", "increase cap", "mp total", "TCP mean"),
		cols:     totalCols("increase_cap", "", "%-14s", mpTotal, tcpMean),
		rows: oliaRows([]string{"capped (std)", "uncapped"}, 5, func(i int, mp *scenario.FlowSpec) {
			mp.NoIncreaseCap = i == 1
		}),
	}
)

// totalCols are a label, the multipath user's total and the mean TCP
// rate: the shape of the cap, receive-window and delayed-ACK tables.
func totalCols(label, unit, verb string, total, mean func(o []float64) float64) []col {
	return []col{
		{name: label, unit: unit, verb: verb},
		{name: "mp_total", unit: "Mb/s", verb: " | %-10.2f", read: total},
		{name: "tcp_mean", unit: "Mb/s", verb: " | %.2f", read: mean},
	}
}

// queueRows are RED and DropTail on both links, each with LIA and OLIA, on
// the asymmetric rig.
func queueRows() []row {
	var rows []row
	for _, q := range []struct {
		name string
		kind scenario.QueueKind
	}{{"RED", scenario.QueueRED}, {"DropTail", scenario.QueueDropTail}} {
		for _, algo := range []string{"lia", "olia"} {
			rows = append(rows, row{labels: []Cell{TextCell(q.name), TextCell(algo)},
				run: runTwoLink(algo, 5, 10, func(sp *scenario.Spec) { sp.Links[0].Queue, sp.Links[1].Queue = q.kind, q.kind })})
		}
	}
	return rows
}

func init() {
	registerTable("ablation-epsilon", "§II design space",
		"ε-family sweep: fully coupled (ε=0) vs LIA (ε=1) vs OLIA vs uncoupled (ε=2) on symmetric links", ablationEpsilon)
	registerTable("ablation-queue", "§III / §VI-B queueing",
		"RED vs DropTail bottlenecks: OLIA's congestion balancing holds under both disciplines", ablationQueue)
	registerTable("ablation-ssthresh", "§IV-B",
		"Subflow ssthresh=1 vs normal slow start on a congested path", ablationSsthresh)
	registerTable("ablation-cap", "RFC 6356 goal 2",
		"Per-ACK increase cap on vs off", ablationCap)
}
