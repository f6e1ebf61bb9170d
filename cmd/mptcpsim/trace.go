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
	"mptcpsim/internal/trace"
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

	n, err := scenario.Compile(scenario.PaperTwoLink(*capMbps, *tcp1, *tcp2, *algo, *seed, 0, *seconds))
	if err != nil {
		fail(err)
	}
	exitOn(writeTrace(ctx, n, sim.Seconds(*period), os.Stdout), "interrupted")
}

// writeTrace runs the two-link network under a recorder sampling its "mp"
// user every period, and writes the series to w as CSV once the run is
// complete.
func writeTrace(ctx context.Context, n *scenario.Net, period sim.Time, w io.Writer) error {
	mp := n.Group("mp")[0].Conn
	probes := []trace.Probe{
		{Name: "w1", Fn: func() float64 { return mp.CwndPkts(0) }},
		{Name: "w2", Fn: func() float64 { return mp.CwndPkts(1) }},
		{Name: "rtt1", Fn: func() float64 { return mp.SRTT(0) }},
		{Name: "rtt2", Fn: func() float64 { return mp.SRTT(1) }},
	}
	if o, isOLIA := mp.Controller().(*core.OLIA); isOLIA {
		probes = append(probes,
			trace.Probe{Name: "alpha1", Fn: func() float64 { return o.Alpha(0) }},
			trace.Probe{Name: "alpha2", Fn: func() float64 { return o.Alpha(1) }},
			trace.Probe{Name: "ell1", Fn: func() float64 { return o.Ell(0) }},
			trace.Probe{Name: "ell2", Fn: func() float64 { return o.Ell(1) }},
		)
	}
	rec := trace.NewRecorder(n.Sim, period, n.End, probes...)
	rec.Start(0)
	rep, err := n.Run(ctx)
	if err != nil {
		return err
	}
	if len(rep.Violations) != 0 {
		return fmt.Errorf("trace: invariant violations: %v", rep.Violations)
	}
	out := bufio.NewWriter(w)
	if err := rec.WriteCSV(out); err != nil {
		return err
	}
	return out.Flush()
}
