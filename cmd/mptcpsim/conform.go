package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mptcpsim"
)

// conformMain implements `mptcpsim conform`: the scenario fuzzer plus the
// cross-model conformance suite, the CLI face of internal/scenario. Exits
// 1 when any invariant or conformance case fails — the regression gate CI
// runs with -smoke — and 130 on Ctrl-C (both campaigns cancel at their
// next scenario/case boundary).
func conformMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("conform", flag.ExitOnError)
	var (
		n        = fs.Int("n", 200, "fuzzer scenarios to generate and run")
		seed     = fs.Int64("seed", 1, "fuzzer campaign seed")
		duration = fs.Float64("duration", 30, "conformance measurement window per run, seconds")
		jobs     = fs.Int("j", 0, "parallel simulation workers (0 = all CPUs)")
		smoke    = fs.Bool("smoke", false, "CI scale: 40 fuzz scenarios, 20 s conformance windows")
		jsonOut  = fs.Bool("json", false, "emit the reports as one JSON object")
		fuzzOnly = fs.Bool("fuzz-only", false, "run the fuzzer only, skipping the conformance suite")
		replay   = fs.Int("replay", -1, "re-run one fuzz scenario by index (with -seed) and print its report")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mptcpsim conform [-n N] [-seed S] [-duration sec] [-j W] [-smoke] [-fuzz-only] [-replay I] [-json]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *smoke {
		*n, *duration = 40, 20
	}

	meter := newMeter()
	lab := mptcpsim.NewLab(mptcpsim.WithWorkers(*jobs), mptcpsim.WithProgress(meter.observe))
	if *replay >= 0 {
		replayMain(ctx, lab, *seed, *replay, *jsonOut)
		return
	}
	opts := mptcpsim.ConformanceOptions{DurationSec: *duration}
	// A window the suite would reject must not wait for the fuzzer.
	if err := opts.Validate(); err != nil && !*fuzzOnly {
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
	t0 := time.Now()
	fuzz, err := lab.Fuzz(ctx, mptcpsim.FuzzOptions{N: *n, Seed: *seed})
	if err != nil {
		meter.clear()
		exitOn(err, "interrupted")
	}
	var conf *mptcpsim.ConformanceReport
	if !*fuzzOnly {
		conf, err = lab.Conform(ctx, opts)
	}
	meter.clear()
	if err != nil {
		exitOn(err, "interrupted")
	}

	if *jsonOut {
		out := struct {
			Fuzz        *mptcpsim.FuzzReport        `json:"fuzz"`
			Conformance *mptcpsim.ConformanceReport `json:"conformance,omitempty"`
		}{fuzz, conf}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "mptcpsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		renderFuzz(fuzz)
		if conf != nil {
			renderConformance(conf)
		}
	}
	fmt.Fprintf(os.Stderr, "(conform total %v)\n", time.Since(t0).Round(time.Millisecond))
	if fuzz.Failed() || (conf != nil && conf.Failed()) {
		os.Exit(1)
	}
}

// replayMain re-runs one fuzz scenario by campaign seed and index — the
// command each fuzz failure prints — and exits 1 if it still violates an
// invariant.
func replayMain(ctx context.Context, lab *mptcpsim.Lab, seed int64, index int, jsonOut bool) {
	sp := mptcpsim.GenFuzzSpec(seed, index)
	rep, err := lab.Run(ctx, sp)
	if err != nil {
		exitOn(err, "interrupted")
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "mptcpsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		verdict := "all invariants held"
		if len(rep.Violations) > 0 {
			verdict = fmt.Sprintf("%d violations", len(rep.Violations))
		}
		fmt.Printf("replay: scenario %d (%s) under campaign seed %d — %s\n",
			index, sp.Name, seed, verdict)
		for _, f := range rep.Flows {
			fmt.Printf("  flow %-10s %-12s %7.3f Mb/s  %d timeouts\n",
				f.Name, f.Algorithm, f.GoodputMbps, f.Timeouts)
		}
		for _, v := range rep.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
	}
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

// renderFuzz prints the fuzz campaign summary; each failure carries the
// one-line command that replays it in isolation.
func renderFuzz(fuzz *mptcpsim.FuzzReport) {
	verdict := "all invariants held"
	if fuzz.Failed() {
		verdict = fmt.Sprintf("%d scenarios FAILED", len(fuzz.Failures))
	}
	fmt.Printf("fuzz: %d scenarios (seed %d), %d flows over %d links, %d kernel events — %s\n",
		fuzz.N, fuzz.Seed, fuzz.Flows, fuzz.Links, fuzz.Events, verdict)
	for _, f := range fuzz.Failures {
		fmt.Printf("  scenario %d (%s):\n", f.Index, f.Name)
		for _, v := range f.Violations {
			fmt.Printf("    %s\n", v)
		}
		fmt.Printf("    replay: mptcpsim conform -seed %d -replay %d\n", fuzz.Seed, f.Index)
	}
}

// renderConformance prints the cross-model suite summary.
func renderConformance(conf *mptcpsim.ConformanceReport) {
	fmt.Printf("conformance: packet-level vs fluid equilibrium, per-path goodput shares (tolerance ±%.2f)\n",
		conf.Tolerance)
	fmt.Printf("  %-8s %-10s %-7s %-9s %s\n", "topology", "algo", "Δshare", "verdict", "sim vs model shares")
	for _, c := range conf.Results {
		verdict := "pass"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("  %-8s %-10s %6.3f  %-9s %s vs %s\n",
			c.Case.Name, c.Case.Algo, c.MaxShareDiff, verdict,
			shareString(c.SimShares), shareString(c.ModelShares))
	}
}

// shareString renders a share vector compactly.
func shareString(shares []float64) string {
	s := "["
	for i, v := range shares {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", v)
	}
	return s + "]"
}
