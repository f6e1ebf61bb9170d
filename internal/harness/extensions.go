package harness

import (
	"context"
	"fmt"
	"io"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// probeMetrics is one §VII bad-path-suspension run: normalized rates plus
// the number of suspension episodes.
type probeMetrics struct {
	single, multi float64
	suspends      int
}

// runProbeSuspension executes one Scenario-C-like run (N1=20, N2=10,
// C1/C2=2, OLIA) with or without bad-path suspension enabled on the
// multipath users.
func runProbeSuspension(ctx context.Context, cfg Config, enable bool, seed int64) probeMetrics {
	n := compile(scenario.PaperScenarioC(20, 10, 2.0, 1.0, "olia", seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	multi, single := n.Group("multi"), n.Group("single")
	if enable {
		for _, f := range multi {
			f.Conn.EnableProbeControl(mptcp.ProbeControl{})
		}
	}
	if _, ok := run(ctx, n); !ok {
		return probeMetrics{}
	}
	secs := cfg.Duration.Sec()
	var m probeMetrics
	for _, f := range multi {
		m.multi += stats.Mbps(f.WindowBytes(), secs) / 2.0 / 20
		m.suspends += f.Conn.SuspendCount(0) + f.Conn.SuspendCount(1)
	}
	for _, f := range single {
		m.single += stats.Mbps(f.WindowBytes(), secs) / 1.0 / 10
	}
	return m
}

// extProbe evaluates the §VII future-work extension: suspending
// persistently-bad paths drops the probing traffic below 1 MSS per RTT,
// pushing the single-path users of a Scenario-C-like network past the
// "optimum with probing cost" line.
func extProbe(cfg Config) Plan {
	variants := []bool{false, true}
	return sweep(cfg, variants, func(ctx context.Context, enable bool, seed int64) probeMetrics {
		return runProbeSuspension(ctx, cfg, enable, seed)
	}, func(per [][]probeMetrics) (*Result, error) {
		opt := 1 - 2.0*0.08 // optimum-with-probing single-path norm at N1/N2=2
		r := &Result{
			Preamble: []string{"Scenario C (N1=20, N2=10, C1/C2=2) with OLIA: bad-path suspension (§VII)"},
			Columns: []Column{
				{Name: "variant"},
				{Name: "single", Unit: "norm"}, {Name: "multi", Unit: "norm"},
				{Name: "suspensions"},
			},
			Footer: []string{fmt.Sprintf(
				"(optimum WITH probing cost for singles: %.3f; suspension can exceed it)", opt)},
		}
		for i, enable := range variants {
			var single, multi stats.Summary
			suspends := 0
			for _, m := range per[i] {
				single.Add(m.single)
				multi.Add(m.multi)
				suspends += m.suspends
			}
			name := "probing floor (std)"
			if enable {
				name = "bad-path suspension"
			}
			r.Rows = append(r.Rows, []Cell{
				TextCell(name), SummaryCell(single), SummaryCell(multi), IntCell(suspends),
			})
		}
		return r, nil
	})
}

// textExtProbe is the classic bad-path-suspension table layout.
func textExtProbe(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-24s | %-18s | %-18s | %s\n",
		"variant", "single-path (norm)", "multipath (norm)", "suspensions")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-24s | %8.3f±%-8.3f | %8.3f±%-8.3f | %d\n",
			c[0].Text, c[1].Value, c[1].CI95, c[2].Value, c[2].CI95, c[3].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// extRwnd evaluates receive-window limitations (§VII's last suggestion): a
// multipath user whose peer advertises a small window cannot even reach its
// best-path TCP rate, regardless of coupling.
func extRwnd(cfg Config) Plan {
	rwnds := []float64{0, 16, 8, 4}
	return perPoint(rwnds, func(ctx context.Context, rwnd float64) twoLinkOutcome {
		sp := twoLinkSpec(cfg, "olia", 5, 5)
		twoLinkMP(sp).MaxCwndPkts = rwnd
		return runTwoLink(ctx, cfg, sp)
	}, func(outs []twoLinkOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Two-link rig, OLIA: effect of a receive-window cap on the aggregate"},
			Columns: []Column{
				{Name: "rwnd", Unit: "pkts"},
				{Name: "mp_total", Unit: "Mb/s"}, {Name: "tcp_mean", Unit: "Mb/s"},
			},
		}
		for i, rwnd := range rwnds {
			o := outs[i]
			label := "unlimited"
			if rwnd > 0 {
				label = fmt.Sprintf("%.0f", rwnd)
			}
			r.Rows = append(r.Rows, []Cell{
				TextCell(label), NumCell(o.mp1 + o.mp2), NumCell((o.bg1 + o.bg2) / 2),
			})
		}
		return r, nil
	})
}

// textExtRwnd is the classic receive-window table layout.
func textExtRwnd(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-12s | %-10s | %s\n", "rwnd (pkts)", "mp total", "TCP mean")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-12s | %-10.2f | %.2f\n", c[0].Text, c[1].Value, c[2].Value)
	}
	return nil
}

// streamOutcome is one serial-transfer comparison run: completion-time
// statistics for the requested number of transfers.
type streamOutcome struct {
	mode string
	sum  stats.Summary
}

// runSerialTransfers measures `transfers` back-to-back finite transfers of
// the given size over the two-link rig (2 background TCP flows per link)
// under one transport mode. The rig's own multipath user is left out; each
// transfer joins the running network as a flow of its own over the same
// queues.
func runSerialTransfers(ctx context.Context, cfg Config, mode string, size int64, transfers int) streamOutcome {
	const horizonSec = 600
	sp := scenario.PaperTwoLink(10, 2, 2, "olia", cfg.BaseSeed, 0, horizonSec)
	sp.Flows = sp.Flows[:len(sp.Flows)-1]
	n := compile(sp)
	out := streamOutcome{mode: mode}
	launchSerial(n, mode, size, transfers, &out.sum)
	if _, ok := run(ctx, n); !ok {
		return streamOutcome{mode: mode}
	}
	return out
}

// extStreams compares finite transfers done as single-path TCP against
// MPTCP data-level streams (DSS-style scheduling + reassembly) over two
// paths: connection-level completion time is the metric, so reassembly
// head-of-line blocking is included — a facet the paper leaves to future
// work ("flow durations").
func extStreams(cfg Config) Plan {
	const xferBytes = 512 * 1024
	const transfers = 20
	modes := []string{"tcp", "mptcp-olia stream"}
	return perPoint(modes, func(ctx context.Context, mode string) streamOutcome {
		return runSerialTransfers(ctx, cfg, mode, xferBytes, transfers)
	}, func(outs []streamOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{fmt.Sprintf(
				"Serial %d KB transfers over the two-link rig (2 bg TCP flows per link)", xferBytes/1024)},
			Columns: []Column{
				{Name: "transport"}, {Name: "completion", Unit: "s"},
				{Name: "completed"}, {Name: "transfers"},
			},
			Footer: []string{"(expected: streams finish faster by pulling both links' spare capacity)"},
		}
		for _, o := range outs {
			r.Rows = append(r.Rows, []Cell{
				TextCell(o.mode), SummaryCell(o.sum), IntCell(o.sum.N()), IntCell(transfers),
			})
		}
		return r, nil
	})
}

// textExtStreams is the classic serial-transfers table layout (completion
// as mean ± stdev).
func textExtStreams(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-22s | %-16s | %s\n", "transport", "completion (s)", "completed")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-22s | %6.2f ± %-6.2f | %d/%d\n",
			c[0].Text, c[1].Value, c[1].Stdev, c[2].Int(), c[3].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// launchSerial starts `count` back-to-back transfers, each beginning when
// the previous completes.
func launchSerial(n *scenario.Net, mode string, size int64, count int, sum *stats.Summary) {
	// The two-link spec's path i crosses link i alone.
	routes := make([]scenario.Route, len(n.Spec.Paths))
	for i, p := range n.Spec.Paths {
		routes[i] = scenario.Route{DelayMs: p.DelayMs, Fwd: p.Links}
	}
	xfer, baseID := &scenario.FlowSpec{Algorithm: scenario.AlgoTCP, FlowBytes: size}, 5000
	if mode == "tcp" {
		routes = routes[:1]
	} else {
		// Finite transfers need slow start: the §IV-B ssthresh=1 setting
		// (meant for long-lived flows probing congested paths) would make a
		// 512 KB stream crawl from a 1-packet window in congestion
		// avoidance — ~3x slower than plain TCP. This is why the paper's
		// own short-flow workload uses regular TCP.
		xfer = &scenario.FlowSpec{Algorithm: "olia", FlowBytes: size, Scheduler: "pull", KeepSlowStart: true}
		baseID = 6000
	}
	var startNext func(i int)
	startNext = func(i int) {
		if i >= count {
			return
		}
		f := n.AddFlow(fmt.Sprintf("xfer%d", i), xfer, baseID+i*len(routes), routes, n.Sim.Now())
		f.OnComplete(func(took sim.Time) {
			sum.Add(took.Sec())
			startNext(i + 1)
		})
	}
	startNext(0)
}

func init() {
	register(&Experiment{
		ID:       "ext-probe",
		PaperRef: "§VII (future work)",
		Title:    "Extension: suspending bad paths cuts probing traffic below 1 MSS/RTT",
		Plan:     extProbe,
		Text:     textExtProbe,
	})
	register(&Experiment{
		ID:       "ext-rwnd",
		PaperRef: "§VII (future work)",
		Title:    "Extension: receive-window limitations bound multipath gains",
		Plan:     extRwnd,
		Text:     textExtRwnd,
	})
	register(&Experiment{
		ID:       "ext-streams",
		PaperRef: "§VII (future work)",
		Title:    "Extension: finite transfers as MPTCP data-level streams vs single-path TCP",
		Plan:     extStreams,
		Text:     textExtStreams,
	})
	register(&Experiment{
		ID:       "ablation-delack",
		PaperRef: "RFC 1122 receivers",
		Title:    "Per-segment vs delayed ACKs under OLIA",
		Plan:     ablationDelack,
		Text:     textAblationDelack,
	})
	register(&Experiment{
		ID:       "ext-rtt",
		PaperRef: "Remark 3",
		Title:    "RTT heterogeneity: TCP-compatible couplings favor the short-RTT path even at equal congestion",
		Plan:     extRTT,
		Text:     textExtRTT,
	})
}

// extRTT probes Remark 3: with equal per-path congestion but different
// RTTs, any TCP-compatible algorithm (whose per-path throughput scales as
// 1/rtt at equal loss) sends more on the short-RTT path; OLIA's ℓ/rtt² best
// metric makes the preference explicit.
func extRTT(cfg Config) Plan {
	algos := []string{"olia", "lia", "uncoupled"}
	return perPoint(algos, func(ctx context.Context, algo string) twoLinkOutcome {
		sp := twoLinkSpec(cfg, algo, 5, 5)
		sp.Paths[1].DelayMs = 120 // RTT 240+q vs 80+q ms
		return runTwoLink(ctx, cfg, sp)
	}, func(outs []twoLinkOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Two links, equal capacity and background (5 TCP each); path 2 RTT 3x path 1"},
			Columns: []Column{
				{Name: "algorithm"},
				{Name: "mp_short_rtt", Unit: "Mb/s"}, {Name: "mp_long_rtt", Unit: "Mb/s"},
				{Name: "ratio"},
			},
			Footer: []string{"(expected: every algorithm leans to the short-RTT path; the coupled ones more)"},
		}
		for i, algo := range algos {
			o := outs[i]
			ratio := 0.0
			if o.mp2 > 0 {
				ratio = o.mp1 / o.mp2
			}
			r.Rows = append(r.Rows, []Cell{
				TextCell(algo), NumCell(o.mp1), NumCell(o.mp2), NumCell(ratio),
			})
		}
		return r, nil
	})
}

// textExtRTT is the classic RTT-heterogeneity table layout.
func textExtRTT(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s | %-12s %-12s | %s\n",
		"algorithm", "mp short-rtt", "mp long-rtt", "ratio")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-14s | %-12.2f %-12.2f | %.1f\n",
			c[0].Text, c[1].Value, c[2].Value, c[3].Value)
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// delackOutcome is one acknowledgment-policy run on the symmetric rig.
type delackOutcome struct {
	mpMbps, bgMeanMbps float64
}

// runDelack measures the symmetric rig with per-segment or delayed ACKs.
func runDelack(ctx context.Context, cfg Config, delayed bool) delackOutcome {
	n := compile(twoLinkSpec(cfg, "olia", 5, 5))
	if delayed {
		for _, f := range n.Flows {
			for _, k := range f.Sinks {
				k.SetDelayedAck(40 * sim.Millisecond)
			}
		}
	}
	if _, ok := run(ctx, n); !ok {
		return delackOutcome{}
	}
	secs := cfg.Duration.Sec()
	tcp1, tcp2 := n.Group("tcp1"), n.Group("tcp2")
	return delackOutcome{
		mpMbps:     stats.Mbps(scenario.GroupWindowBytes(n.Group("mp")), secs),
		bgMeanMbps: stats.Mbps(scenario.GroupWindowBytes(tcp1)+scenario.GroupWindowBytes(tcp2), secs) / float64(len(tcp1)+len(tcp2)),
	}
}

// ablationDelack compares per-segment acknowledgments (htsim behavior, the
// default here) with RFC 1122 delayed ACKs on the symmetric rig.
func ablationDelack(cfg Config) Plan {
	variants := []bool{false, true}
	return perPoint(variants, func(ctx context.Context, delayed bool) delackOutcome {
		return runDelack(ctx, cfg, delayed)
	}, func(outs []delackOutcome) (*Result, error) {
		r := &Result{
			Preamble: []string{"Symmetric rig, OLIA: receiver acknowledgment policy"},
			Columns: []Column{
				{Name: "receiver"},
				{Name: "mp_total", Unit: "Mb/s"}, {Name: "tcp_mean", Unit: "Mb/s"},
			},
		}
		for i, delayed := range variants {
			name := "per-segment ACKs"
			if delayed {
				name = "delayed ACKs (40ms)"
			}
			r.Rows = append(r.Rows, []Cell{
				TextCell(name), NumCell(outs[i].mpMbps), NumCell(outs[i].bgMeanMbps),
			})
		}
		return r, nil
	})
}

// textAblationDelack is the classic acknowledgment-policy table layout.
func textAblationDelack(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-22s | %-10s | %s\n", "receiver", "mp total", "TCP mean")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-22s | %-10.2f | %.2f\n", c[0].Text, c[1].Value, c[2].Value)
	}
	return nil
}
