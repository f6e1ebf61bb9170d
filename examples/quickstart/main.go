// Quickstart: run one multipath user over the paper's Fig. 6 two-link
// network with OLIA and with LIA through the Lab engine, read the per-flow
// and per-queue report programmatically (no text parsing), and compare
// against the analytic fixed points.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -seconds 5   # shorter smoke run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"mptcpsim"
)

func main() {
	seconds := flag.Float64("seconds", 60, "measured seconds per run")
	flag.Parse()

	// One engine for every call; cancelling ctx (e.g. from a signal
	// handler) would stop the simulations at the next job boundary.
	lab := mptcpsim.NewLab()
	ctx := context.Background()

	for _, algo := range []string{"olia", "lia"} {
		// Two 10 Mb/s RED-queued links, the second twice as crowded (5 vs
		// 10 regular TCP flows) — the paper's Fig. 6(b) "asymmetric"
		// setting, on the same network the fig8 experiment runs.
		rep, err := lab.Run(ctx, mptcpsim.PaperTwoLink(10, 5, 10, algo, 1, 2, *seconds))
		if err != nil {
			log.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			log.Fatalf("invariant violations: %v", rep.Violations)
		}
		// Flows are named group-replica: the multipath user is "mp-0", the
		// background flows "tcp1-0", "tcp1-1", … on link 1 and "tcp2-*" on
		// link 2.
		var mp []float64
		var bgMbps [2]float64
		var bgFlows [2]int
		for _, f := range rep.Flows {
			if f.Name == "mp-0" {
				mp = f.PathMbps
				continue
			}
			link := 0
			if strings.HasPrefix(f.Name, "tcp2-") {
				link = 1
			}
			bgMbps[link] += f.GoodputMbps
			bgFlows[link]++
		}
		fmt.Printf("%s: total %.2f Mb/s\n", algo, mp[0]+mp[1])
		for i := range mp {
			fmt.Printf("  path %d: multipath %.2f Mb/s, background TCP %.2f Mb/s, loss %.4f\n",
				i+1, mp[i], bgMbps[i]/float64(bgFlows[i]), rep.Queues[i].Window.LossProb())
		}
	}

	// The analytic view of the same situation: with the measured-scale loss
	// probabilities, where do the fixed points sit?
	analysis, err := lab.Analyze(
		[]float64{0.005, 0.02}, // path 2 four times lossier
		[]float64{0.15, 0.15},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalytic (p = 0.005 vs 0.02, rtt 150 ms):\n")
	fmt.Printf("  TCP on best path: %.2f Mb/s\n", analysis.TCPBestMbps)
	fmt.Printf("  LIA per path:     %.2f / %.2f Mb/s (Eq. 2: spreads 4:1)\n",
		analysis.LIAMbps[0], analysis.LIAMbps[1])
	fmt.Printf("  OLIA per path:    %.2f / %.2f Mb/s (Theorem 1: best path only)\n",
		analysis.OLIAMbps[0], analysis.OLIAMbps[1])
}
