package harness

import (
	"context"
	"fmt"
	"io"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// twoLinkOutcome is the common measurement for the ablation studies: the
// multipath user's split over the two links, the mean background TCP rates,
// and the dominance-flip count (flappiness).
type twoLinkOutcome struct {
	mp1, mp2   float64 // multipath goodput per link, Mb/s
	bg1, bg2   float64 // mean background TCP goodput per link, Mb/s
	flipsCount int
}

// twoLinkSpec is the Fig. 6 rig every ablation starts from: 10 Mb/s links
// shared with nTCP1 and nTCP2 TCP flows, one seed (cfg.BaseSeed).
func twoLinkSpec(cfg Config, algo string, nTCP1, nTCP2 int) *scenario.Spec {
	return scenario.PaperTwoLink(10, nTCP1, nTCP2, algo, cfg.BaseSeed, cfg.Warmup.Sec(), cfg.Duration.Sec())
}

// twoLinkMP is the two-link spec's multipath user, for ablations to vary.
func twoLinkMP(sp *scenario.Spec) *scenario.FlowSpec { return &sp.Flows[len(sp.Flows)-1] }

// windowProbes samples the two subflow windows of a multipath connection.
func windowProbes(conn *mptcp.Conn) []scenario.Probe {
	return []scenario.Probe{
		{Name: "w1", Fn: func() float64 { return conn.CwndPkts(0) }},
		{Name: "w2", Fn: func() float64 { return conn.CwndPkts(1) }},
	}
}

// runTwoLink simulates one two-link rig configuration — the "one point →
// typed result" unit every ablation fans out over.
func runTwoLink(ctx context.Context, cfg Config, sp *scenario.Spec) twoLinkOutcome {
	n := compile(sp)
	mp := n.Group("mp")[0]
	tr := n.Trace(tracePeriod, windowProbes(mp.Conn)...)
	if _, ok := run(ctx, n); !ok {
		return twoLinkOutcome{}
	}
	secs := cfg.Duration.Sec()
	out := twoLinkOutcome{
		mp1:        stats.Mbps(mp.Window[0], secs),
		mp2:        stats.Mbps(mp.Window[1], secs),
		flipsCount: flips(tr.V[0], tr.V[1]),
	}
	if bg := n.Group("tcp1"); len(bg) > 0 {
		out.bg1 = stats.Mbps(scenario.GroupWindowBytes(bg), secs) / float64(len(bg))
	}
	if bg := n.Group("tcp2"); len(bg) > 0 {
		out.bg2 = stats.Mbps(scenario.GroupWindowBytes(bg), secs) / float64(len(bg))
	}
	return out
}

// ablationEpsilon sweeps the ε-family of §II on the symmetric two-link rig:
// ε=0 (fully coupled, Pareto-optimal but flappy), ε=1 (LIA), OLIA, and ε=2
// (uncoupled, grabs two fair shares).
func ablationEpsilon(cfg Config) Plan {
	algos := []string{"fullycoupled", "lia", "olia", "uncoupled"}
	return perPoint(algos, func(ctx context.Context, algo string) twoLinkOutcome {
		return runTwoLink(ctx, cfg, twoLinkSpec(cfg, algo, 5, 5))
	}, func(outs []twoLinkOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Symmetric two-link rig (Fig. 6a): 10 Mb/s links, 5 TCP flows each; fair share 1.67 Mb/s"},
			Columns: []Column{
				{Name: "algorithm"},
				{Name: "mp_total", Unit: "Mb/s"}, {Name: "mp_link1", Unit: "Mb/s"}, {Name: "mp_link2", Unit: "Mb/s"},
				{Name: "tcp_mean", Unit: "Mb/s"}, {Name: "flips"},
			},
			Footer: []string{"(expected: uncoupled ≈ 2 shares; lia/olia ≈ 1 share; fullycoupled flips most)"},
		}
		for i, algo := range algos {
			o := outs[i]
			r.Rows = append(r.Rows, []Cell{
				TextCell(algo),
				NumCell(o.mp1 + o.mp2), NumCell(o.mp1), NumCell(o.mp2),
				NumCell((o.bg1 + o.bg2) / 2), IntCell(o.flipsCount),
			})
		}
		return r, nil
	})
}

// textAblationEpsilon is the classic ε-family table layout.
func textAblationEpsilon(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s | %-9s %-9s %-9s | %-9s | %s\n",
		"algorithm", "mp total", "mp link1", "mp link2", "TCP mean", "w1/w2 flips")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-14s | %-9.2f %-9.2f %-9.2f | %-9.2f | %d\n",
			c[0].Text, c[1].Value, c[2].Value, c[3].Value, c[4].Value, c[5].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// ablationQueue reruns the asymmetric rig under RED and DropTail: the
// paper's conclusions do not depend on the queueing discipline (§VI-B
// studies drop-tail in htsim).
func ablationQueue(cfg Config) Plan {
	type point struct {
		kind scenario.QueueKind
		algo string
	}
	var pts []point
	for _, kind := range []scenario.QueueKind{scenario.QueueRED, scenario.QueueDropTail} {
		for _, algo := range []string{"lia", "olia"} {
			pts = append(pts, point{kind, algo})
		}
	}
	return perPoint(pts, func(ctx context.Context, p point) twoLinkOutcome {
		sp := twoLinkSpec(cfg, p.algo, 5, 10)
		sp.Links[0].Queue, sp.Links[1].Queue = p.kind, p.kind
		return runTwoLink(ctx, cfg, sp)
	}, func(outs []twoLinkOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Asymmetric rig (Fig. 6b): link2 shared with 10 TCP flows; congested-path traffic by discipline"},
			Columns: []Column{
				{Name: "queue"}, {Name: "algorithm"},
				{Name: "mp_link1", Unit: "Mb/s"}, {Name: "mp_link2", Unit: "Mb/s"},
				{Name: "tcp_link2", Unit: "Mb/s"},
			},
			Footer: []string{"(expected: OLIA's link2 traffic stays near the probing floor under both disciplines)"},
		}
		for i, p := range pts {
			kindName := "RED"
			if p.kind == scenario.QueueDropTail {
				kindName = "DropTail"
			}
			o := outs[i]
			r.Rows = append(r.Rows, []Cell{
				TextCell(kindName), TextCell(p.algo),
				NumCell(o.mp1), NumCell(o.mp2), NumCell(o.bg2),
			})
		}
		return r, nil
	})
}

// textAblationQueue is the classic RED-vs-DropTail table layout.
func textAblationQueue(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-10s %-10s | %-10s %-10s | %s\n",
		"queue", "algorithm", "mp link1", "mp link2", "TCP mean on link2")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s %-10s | %-10.2f %-10.2f | %.2f\n",
			c[0].Text, c[1].Text, c[2].Value, c[3].Value, c[4].Value)
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// ablationSsthresh compares the paper's subflow setting (ssthresh = 1 MSS,
// §IV-B) with normal slow start on the asymmetric rig: slow-starting
// subflows repeatedly blast the congested path.
func ablationSsthresh(cfg Config) Plan {
	variants := []bool{false, true}
	return perPoint(variants, func(ctx context.Context, keepSS bool) twoLinkOutcome {
		sp := twoLinkSpec(cfg, "olia", 5, 10)
		twoLinkMP(sp).KeepSlowStart = keepSS
		return runTwoLink(ctx, cfg, sp)
	}, func(outs []twoLinkOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Asymmetric rig: effect of the §IV-B subflow ssthresh=1 setting"},
			Columns: []Column{
				{Name: "subflow_start"},
				{Name: "mp_link1", Unit: "Mb/s"}, {Name: "mp_link2", Unit: "Mb/s"},
				{Name: "tcp_link2", Unit: "Mb/s"},
			},
		}
		for i, keepSS := range variants {
			name := "ssthresh=1 (paper)"
			if keepSS {
				name = "normal slow start"
			}
			o := outs[i]
			r.Rows = append(r.Rows, []Cell{
				TextCell(name), NumCell(o.mp1), NumCell(o.mp2), NumCell(o.bg2),
			})
		}
		return r, nil
	})
}

// textAblationSsthresh is the classic ssthresh-ablation table layout.
func textAblationSsthresh(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-22s | %-10s %-10s | %s\n",
		"subflow start", "mp link1", "mp link2", "TCP mean on link2")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-22s | %-10.2f %-10.2f | %.2f\n",
			c[0].Text, c[1].Value, c[2].Value, c[3].Value)
	}
	return nil
}

// ablationCap compares OLIA with and without the per-ACK Reno cap (goal 2's
// "never more aggressive than TCP on any path").
func ablationCap(cfg Config) Plan {
	variants := []bool{false, true}
	return perPoint(variants, func(ctx context.Context, noCap bool) twoLinkOutcome {
		sp := twoLinkSpec(cfg, "olia", 5, 5)
		twoLinkMP(sp).NoIncreaseCap = noCap
		return runTwoLink(ctx, cfg, sp)
	}, func(outs []twoLinkOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Symmetric rig: effect of the per-ACK increase cap (RFC 6356 goal 2)"},
			Columns: []Column{
				{Name: "increase_cap"},
				{Name: "mp_total", Unit: "Mb/s"}, {Name: "tcp_mean", Unit: "Mb/s"},
			},
		}
		for i, noCap := range variants {
			name := "capped (std)"
			if noCap {
				name = "uncapped"
			}
			o := outs[i]
			r.Rows = append(r.Rows, []Cell{
				TextCell(name), NumCell(o.mp1 + o.mp2), NumCell((o.bg1 + o.bg2) / 2),
			})
		}
		return r, nil
	})
}

// textAblationCap is the classic increase-cap table layout.
func textAblationCap(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s | %-10s | %s\n", "increase cap", "mp total", "TCP mean")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-14s | %-10.2f | %.2f\n", c[0].Text, c[1].Value, c[2].Value)
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "ablation-epsilon",
		PaperRef: "§II design space",
		Title:    "ε-family sweep: fully coupled (ε=0) vs LIA (ε=1) vs OLIA vs uncoupled (ε=2) on symmetric links",
		Plan:     ablationEpsilon,
		Text:     textAblationEpsilon,
	})
	register(&Experiment{
		ID:       "ablation-queue",
		PaperRef: "§III / §VI-B queueing",
		Title:    "RED vs DropTail bottlenecks: OLIA's congestion balancing holds under both disciplines",
		Plan:     ablationQueue,
		Text:     textAblationQueue,
	})
	register(&Experiment{
		ID:       "ablation-ssthresh",
		PaperRef: "§IV-B",
		Title:    "Subflow ssthresh=1 vs normal slow start on a congested path",
		Plan:     ablationSsthresh,
		Text:     textAblationSsthresh,
	})
	register(&Experiment{
		ID:       "ablation-cap",
		PaperRef: "RFC 6356 goal 2",
		Title:    "Per-ACK increase cap on vs off",
		Plan:     ablationCap,
		Text:     textAblationCap,
	})
}
