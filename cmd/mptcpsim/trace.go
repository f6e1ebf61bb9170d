package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

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

	sp := scenario.PaperTwoLink(*capMbps, *tcp1, *tcp2, *algo, *seed, 0, *seconds)
	names := traceColumns(sp, *algo, *period*1e3)
	if err := sp.Validate(); err != nil {
		fail(err)
	}
	exitOn(writeTrace(ctx, sp, names, os.Stdout), "interrupted")
}

// traceColumns sets sp's trace to the "mp" user's windows and smoothed
// RTTs and, for OLIA, its α and ℓ, every periodMs, and returns the CSV
// names of those columns.
func traceColumns(sp *scenario.Spec, algo string, periodMs float64) []string {
	names := []string{"w1", "w2", "rtt1", "rtt2"}
	sp.Trace = &scenario.TraceSpec{PeriodMs: periodMs,
		Probes: []string{"cwnd mp 0 0", "cwnd mp 0 1", "srtt mp 0 0", "srtt mp 0 1"}}
	if algo == "olia" {
		names = append(names, "alpha1", "alpha2", "ell1", "ell2")
		sp.Trace.Probes = append(sp.Trace.Probes, "alpha mp 0 0", "alpha mp 0 1", "ell mp 0 0", "ell mp 0 1")
	}
	return names
}

// writeTrace runs the traced two-link network and writes its series to w
// as CSV, under the column names given, once the run is complete.
func writeTrace(ctx context.Context, sp *scenario.Spec, names []string, w io.Writer) error {
	rep, err := scenario.Run(ctx, sp)
	if err != nil {
		return err
	}
	if len(rep.Violations) != 0 {
		return fmt.Errorf("trace: invariant violations: %v", rep.Violations)
	}
	out := bufio.NewWriter(w)
	writeCSV(out, names, rep.Trace)
	return out.Flush()
}

// writeCSV emits "t,<name1>,<name2>,..." rows, seconds in the first column.
// A bufio.Writer keeps its first error and reports it from Flush.
func writeCSV(w *bufio.Writer, names []string, tr *scenario.TraceReport) {
	w.WriteString("t")
	for _, name := range names {
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
