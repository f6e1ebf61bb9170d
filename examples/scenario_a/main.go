// Scenario A walkthrough (the paper's Fig. 1): N1 users with private
// high-speed access to a streaming server upgrade to MPTCP by adding a path
// through a shared AP used by N2 regular-TCP users. The upgrade cannot help
// them (the server link is their bottleneck), yet with LIA it severely hurts
// the TCP users. OLIA fixes it.
//
// The packet-level runs go through the Lab engine and the declarative
// scenario spec (PaperScenarioA); only the paper's analytic fixed points
// still come from the internal math package.
//
//	go run ./examples/scenario_a
//	go run ./examples/scenario_a -seconds 10   # shorter smoke run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"mptcpsim"
	"mptcpsim/internal/fixedpoint"
)

const (
	n1, n2 = 20, 10 // twice as many upgraded users as TCP users
	c1, c2 = 1.0, 1.0
	warmup = 5
)

func main() {
	seconds := flag.Float64("seconds", 60, "measured seconds per run")
	flag.Parse()

	lab := mptcpsim.NewLab()
	ctx := context.Background()

	// run measures the TCP users' normalized goodput and the shared AP's
	// loss probability under one coupling, from a declarative spec run.
	run := func(algo string) (t2, p2 float64) {
		rep, err := lab.Run(ctx, mptcpsim.PaperScenarioA(n1, n2, c1, c2, algo, 7, warmup, *seconds))
		if err != nil {
			log.Fatal(err)
		}
		// Flows list every replica in spec order: n1 type1 users first,
		// then the n2 type2 TCP users; queue 1 is the shared AP.
		for _, f := range rep.Flows[n1:] {
			t2 += f.GoodputMbps / c2 / n2
		}
		return t2, rep.Queues[1].Window.LossProb()
	}

	fmt.Printf("Scenario A: %d MPTCP users (server-limited to %.1f Mb/s each) share an AP\n", n1, c1)
	fmt.Printf("with %d regular TCP users; the AP alone would give each TCP user %.1f Mb/s.\n\n", n2, c2)

	ana, err := fixedpoint.ScenarioALIA(n1, n2, c1, c2, fixedpoint.PaperRTT)
	if err != nil {
		log.Fatal(err)
	}
	opt := fixedpoint.ScenarioAOptimum(n1, n2, c1, c2, fixedpoint.PaperRTT)

	fmt.Printf("%-28s %-22s %s\n", "", "TCP users (normalized)", "shared-AP loss prob")
	liaT2, liaP2 := run("lia")
	fmt.Printf("%-28s %-22.3f %.4f\n", "measured, LIA", liaT2, liaP2)
	oliaT2, oliaP2 := run("olia")
	fmt.Printf("%-28s %-22.3f %.4f\n", "measured, OLIA", oliaT2, oliaP2)
	fmt.Printf("%-28s %-22.3f %.4f\n", "analytic LIA fixed point", ana.Type2Norm, ana.P2)
	fmt.Printf("%-28s %-22.3f -\n", "optimum with probing cost", opt.Type2Norm)

	fmt.Printf("\nThe upgraded users gain nothing either way (server-limited), so every\n")
	fmt.Printf("point below %.2f for the TCP users is pure Pareto loss — problem P1.\n", opt.Type2Norm)
	fmt.Printf("OLIA recovers %.0f%% of LIA's damage.\n",
		100*(oliaT2-liaT2)/(opt.Type2Norm-liaT2))
}
