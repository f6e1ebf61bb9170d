package harness

import (
	"fmt"

	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// runProbeSuspension is the Scenario C point N1=20, N2=10, C1/C2=2 under
// OLIA, read through the Scenario C reader plus the number of suspension
// episodes of the multipath users (reading 4), with or without bad-path
// suspension enabled on them. Without it the run is the one Figs. 11 and
// 12 list too.
func runProbeSuspension(enable bool) network {
	ac := runScenarioAC(scenario.PaperScenarioC, 2.0, 20, "olia")
	return func(cfg Config, seed int64, out *[]float64) Job {
		j := ac(cfg, seed, out)
		sp, read := j.Spec, j.Read
		sp.Flows[0].ProbeControl = enable
		j.Read = func(rep *scenario.RunReport) {
			read(rep)
			suspends := 0
			for _, f := range rep.Group(sp, sp.Flows[0].Name) {
				suspends += f.Suspends
			}
			*out = append(*out, float64(suspends))
		}
		return j
	}
}

// extProbe evaluates the §VII future-work extension: suspending
// persistently-bad paths drops the probing traffic below 1 MSS per RTT,
// pushing the single-path users of a Scenario-C-like network past the
// "optimum with probing cost" line.
var extProbe = &table{
	preamble: []string{"Scenario C (N1=20, N2=10, C1/C2=2) with OLIA: bad-path suspension (§VII)"},
	head: fmt.Sprintf("%-24s | %-18s | %-18s | %s\n",
		"variant", "single-path (norm)", "multipath (norm)", "suspensions"),
	cols: []col{
		{name: "variant", verb: "%-24s"},
		{name: "single", unit: "norm", verb: " | %8.3f±%-8.3f", read: at(1)},
		{name: "multi", unit: "norm", verb: " | %8.3f±%-8.3f", read: at(0)},
		{name: "suspensions", verb: " | %d", read: at(4), count: true},
	},
	rows: []row{
		{labels: []Cell{TextCell("probing floor (std)")}, run: runProbeSuspension(false)},
		{labels: []Cell{TextCell("bad-path suspension")}, run: runProbeSuspension(true)},
	},
	seeded: true,
	footer: []string{fmt.Sprintf("(optimum WITH probing cost for singles: %.3f; suspension can exceed it)",
		fixedpoint.ScenarioCOptimum(20, 10, 2, 1, fixedpoint.PaperRTT).SingleNorm)},
}

// extRwnd evaluates receive-window limitations (§VII's last suggestion): a
// multipath user whose peer advertises a small window cannot even reach its
// best-path TCP rate, regardless of coupling.
var extRwnd = &table{
	preamble: []string{"Two-link rig, OLIA: effect of a receive-window cap on the aggregate"},
	head:     fmt.Sprintf("%-12s | %-10s | %s\n", "rwnd (pkts)", "mp total", "TCP mean"),
	cols:     totalCols("rwnd", "pkts", "%-12s", mpTotal, tcpMean),
	rows: oliaRows([]string{"unlimited", "16", "8", "4"}, 5, func(i int, mp *scenario.FlowSpec) {
		mp.MaxCwndPkts = []float64{0, 16, 8, 4}[i]
	}),
}

// runSerialTransfers measures `transfers` back-to-back finite transfers of
// the given size over the two-link rig (2 background TCP flows per link)
// under one transport mode, read as the completion times in seconds of
// those that finished. The rig's own multipath user is left out; the
// transfers are one serial group over the same queues, each starting when
// the previous completes.
func runSerialTransfers(mode string, size int64, transfers int) network {
	const horizonSec = 600
	xfer := scenario.FlowSpec{Name: "xfer", Algorithm: scenario.AlgoTCP, Paths: []int{0},
		Count: transfers, FlowBytes: size, Serial: true}
	if mode != "tcp" {
		// Finite transfers need slow start: the §IV-B ssthresh=1 setting
		// (meant for long-lived flows probing congested paths) would make a
		// 512 KB stream crawl from a 1-packet window in congestion
		// avoidance — ~3x slower than plain TCP. This is why the paper's
		// own short-flow workload uses regular TCP.
		xfer.Algorithm, xfer.Paths, xfer.Scheduler, xfer.KeepSlowStart = "olia", []int{0, 1}, "pull", true
	}
	return func(_ Config, seed int64, out *[]float64) Job {
		sp := scenario.PaperTwoLink(10, 2, 2, "olia", seed, 0, horizonSec)
		sp.Flows[len(sp.Flows)-1] = xfer
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			for _, f := range rep.Group(sp, "xfer") {
				switch {
				case f.Stream != nil && f.Stream.Done:
					*out = append(*out, f.Stream.CompletionSec)
				case f.CompletionSec != 0:
					*out = append(*out, f.CompletionSec)
				}
			}
		}}
	}
}

// pooled is a cell over every run's readings from skip on, each scaled:
// the summary of one pooled sample, not of seed means.
func pooled(skip int, scale float64) func(runs [][]float64) Cell {
	return func(runs [][]float64) Cell {
		var s stats.Summary
		for _, o := range runs {
			for _, v := range o[skip:] {
				s.Add(v * scale)
			}
		}
		return SummaryCell(s)
	}
}

// extStreams compares finite transfers done as single-path TCP against
// MPTCP data-level streams (DSS-style scheduling + reassembly) over two
// paths: connection-level completion time is the metric, so reassembly
// head-of-line blocking is included — a facet the paper leaves to future
// work ("flow durations"). Completion prints as mean ± stdev.
var extStreams = func() *table {
	const xferBytes = 512 * 1024
	const transfers = 20
	modes := []string{"tcp", "mptcp-olia stream"}
	return &table{
		preamble: []string{fmt.Sprintf(
			"Serial %d KB transfers over the two-link rig (2 bg TCP flows per link)", xferBytes/1024)},
		head: fmt.Sprintf("%-22s | %-16s | %s\n", "transport", "completion (s)", "completed"),
		cols: []col{
			{name: "transport", verb: "%-22s"},
			{name: "completion", unit: "s", verb: " | %6.2f ± %-6.2f", pool: pooled(0, 1)},
			{name: "completed", verb: " | %d", read: func(o []float64) float64 { return float64(len(o)) }, count: true},
			{name: "transfers", verb: "/%d", calc: func([]Cell) (float64, error) { return transfers, nil }},
		},
		rows: labelled(modes, func(i int) network {
			return runSerialTransfers(modes[i], xferBytes, transfers)
		}),
		footer: []string{"(expected: streams finish faster by pulling both links' spare capacity)"},
	}
}()

func init() {
	registerTable("ext-probe", "§VII (future work)",
		"Extension: suspending bad paths cuts probing traffic below 1 MSS/RTT", extProbe)
	registerTable("ext-rwnd", "§VII (future work)",
		"Extension: receive-window limitations bound multipath gains", extRwnd)
	registerTable("ext-streams", "§VII (future work)",
		"Extension: finite transfers as MPTCP data-level streams vs single-path TCP", extStreams)
	registerTable("ablation-delack", "RFC 1122 receivers",
		"Per-segment vs delayed ACKs under OLIA", ablationDelack)
	registerTable("ext-rtt", "Remark 3",
		"RTT heterogeneity: TCP-compatible couplings favor the short-RTT path even at equal congestion", extRTT)
}

// extRTT probes Remark 3: with equal per-path congestion but different
// RTTs, any TCP-compatible algorithm (whose per-path throughput scales as
// 1/rtt at equal loss) sends more on the short-RTT path; OLIA's ℓ/rtt² best
// metric makes the preference explicit. Path 2's one-way delay of 120 ms
// makes its RTT 240+q vs 80+q ms.
var extRTT = &table{
	preamble: []string{"Two links, equal capacity and background (5 TCP each); path 2 RTT 3x path 1"},
	head:     fmt.Sprintf("%-14s | %-12s %-12s | %s\n", "algorithm", "mp short-rtt", "mp long-rtt", "ratio"),
	cols: []col{
		{name: "algorithm", verb: "%-14s"},
		{name: "mp_short_rtt", unit: "Mb/s", verb: " | %-12.2f", read: at(0)},
		{name: "mp_long_rtt", unit: "Mb/s", verb: " %-12.2f", read: at(1)},
		{name: "ratio", verb: " | %.1f", calc: func(c []Cell) (float64, error) {
			if c[2].Value > 0 {
				return c[1].Value / c[2].Value, nil
			}
			return 0, nil
		}},
	},
	rows:   algoRows([]string{"olia", "lia", "uncoupled"}, 120),
	footer: []string{"(expected: every algorithm leans to the short-RTT path; the coupled ones more)"},
}

// runDelack measures the symmetric rig with per-segment or delayed ACKs at
// every receiver, read as the multipath user's goodput and the background
// TCP flows' mean (Mb/s). With per-segment ACKs the run is the OLIA one the
// other two-link experiments list.
func runDelack(delayed bool) network {
	return func(cfg Config, _ int64, out *[]float64) Job {
		sp := twoLinkSpec(cfg, "olia", 5, 5)
		for i := range sp.Flows {
			sp.Flows[i].DelayedAck = delayed
		}
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			secs := cfg.Duration.Sec()
			tcp1, tcp2 := rep.Group(sp, "tcp1"), rep.Group(sp, "tcp2")
			*out = []float64{groupMbps(secs, rep.Group(sp, "mp")), groupMbps(secs, tcp1, tcp2) / float64(len(tcp1)+len(tcp2))}
		}}
	}
}

// ablationDelack compares per-segment acknowledgments (htsim behavior, the
// default here) with RFC 1122 delayed ACKs on the symmetric rig.
var ablationDelack = &table{
	preamble: []string{"Symmetric rig, OLIA: receiver acknowledgment policy"},
	head:     fmt.Sprintf("%-22s | %-10s | %s\n", "receiver", "mp total", "TCP mean"),
	cols:     totalCols("receiver", "", "%-22s", at(0), at(1)),
	rows: []row{
		{labels: []Cell{TextCell("per-segment ACKs")}, run: runDelack(false)},
		{labels: []Cell{TextCell("delayed ACKs (40ms)")}, run: runDelack(true)},
	},
}
