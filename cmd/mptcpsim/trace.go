package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mptcpsim/internal/core"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// traceMain implements `mptcpsim trace`: record the window, RTT and (for
// OLIA) α and ℓ evolution of a two-path multipath user on the paper's
// two-link rig (Figs. 7 and 8) and print it as CSV for plotting:
//
//	mptcpsim trace -algo olia -tcp1 5 -tcp2 10 -seconds 120 > fig8.csv
//
// The run goes through Net.Run like every other simulation, so it is
// invariant-checked and Ctrl-C cancels it at the next simulated second
// (exit 130, nothing printed).
func traceMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		algo    = fs.String("algo", "olia", "coupling algorithm (olia, lia, uncoupled, fullycoupled)")
		tcp1    = fs.Int("tcp1", 5, "background TCP flows on link 1")
		tcp2    = fs.Int("tcp2", 5, "background TCP flows on link 2")
		capMbps = fs.Float64("cap", 10, "per-link capacity in Mb/s")
		seconds = fs.Float64("seconds", 120, "simulated duration")
		period  = fs.Float64("period", 0.25, "sampling period in seconds")
		seed    = fs.Int64("seed", 1, "random seed")
	)
	fs.Parse(args)
	every := sim.Seconds(*period)
	if every <= 0 {
		fail(fmt.Errorf("trace: -period %g s is not a positive sampling period", *period))
	}

	n, err := scenario.Compile(scenario.PaperTwoLink(*capMbps, *tcp1, *tcp2, *algo, *seed, 0, *seconds))
	if err != nil {
		fail(err)
	}
	exitOn(writeTrace(ctx, n, every, os.Stdout), "interrupted")
}

// writeTrace runs the two-link network with a trace sampling its "mp" user
// every period, and writes the series to w as CSV once the run is complete.
func writeTrace(ctx context.Context, n *scenario.Net, period sim.Time, w io.Writer) error {
	mp := n.Group("mp")[0].Conn
	probes := []scenario.Probe{
		{Name: "w1", Fn: func() float64 { return mp.CwndPkts(0) }},
		{Name: "w2", Fn: func() float64 { return mp.CwndPkts(1) }},
		{Name: "rtt1", Fn: func() float64 { return mp.SRTT(0) }},
		{Name: "rtt2", Fn: func() float64 { return mp.SRTT(1) }},
	}
	if o, isOLIA := mp.Controller().(*core.OLIA); isOLIA {
		probes = append(probes,
			scenario.Probe{Name: "alpha1", Fn: func() float64 { return o.Alpha(0) }},
			scenario.Probe{Name: "alpha2", Fn: func() float64 { return o.Alpha(1) }},
			scenario.Probe{Name: "ell1", Fn: func() float64 { return o.Ell(0) }},
			scenario.Probe{Name: "ell2", Fn: func() float64 { return o.Ell(1) }},
		)
	}
	tr := n.Trace(period, probes...)
	rep, err := n.Run(ctx)
	if err != nil {
		return err
	}
	if len(rep.Violations) != 0 {
		return fmt.Errorf("trace: invariant violations: %v", rep.Violations)
	}
	out := bufio.NewWriter(w)
	writeCSV(out, tr)
	return out.Flush()
}

// writeCSV emits "t,<name1>,<name2>,..." rows, seconds in the first column.
// A bufio.Writer keeps its first error and reports it from Flush.
func writeCSV(w *bufio.Writer, tr *scenario.Trace) {
	w.WriteString("t")
	for _, name := range tr.Names {
		fmt.Fprintf(w, ",%s", name)
	}
	fmt.Fprintln(w)
	for row, t := range tr.T {
		fmt.Fprintf(w, "%.3f", t.Sec())
		for _, col := range tr.V {
			fmt.Fprintf(w, ",%.4f", col[row])
		}
		fmt.Fprintln(w)
	}
}
