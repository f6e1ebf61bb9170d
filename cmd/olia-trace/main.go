// Command olia-trace records the window and α evolution of a two-path
// multipath user (the paper's Figs. 7 and 8) and emits CSV suitable for
// plotting.
//
// Usage:
//
//	olia-trace -algo olia -tcp1 5 -tcp2 10 -seconds 120 > fig8.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"mptcpsim/internal/core"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/trace"
)

func main() {
	var (
		algo    = flag.String("algo", "olia", "coupling algorithm (olia, lia, uncoupled, fullycoupled)")
		tcp1    = flag.Int("tcp1", 5, "background TCP flows on link 1")
		tcp2    = flag.Int("tcp2", 5, "background TCP flows on link 2")
		capMbps = flag.Float64("cap", 10, "per-link capacity in Mb/s")
		seconds = flag.Float64("seconds", 120, "simulated duration")
		period  = flag.Float64("period", 0.25, "sampling period in seconds")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	n, err := scenario.Compile(scenario.PaperTwoLink(*capMbps, *tcp1, *tcp2, *algo, *seed, 0, *seconds))
	if err != nil {
		fmt.Fprintf(os.Stderr, "olia-trace: %v\n", err)
		os.Exit(2)
	}
	mp := n.Group("mp")[0].Conn
	stop := sim.Seconds(*seconds)
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
	rec := trace.NewRecorder(n.Sim, sim.Seconds(*period), stop, probes...)
	rec.Start(0)
	n.Sim.RunUntil(stop)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if err := rec.WriteCSV(out); err != nil {
		fmt.Fprintf(os.Stderr, "olia-trace: %v\n", err)
		os.Exit(1)
	}
}
