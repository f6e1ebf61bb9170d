package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mptcpsim"
	"mptcpsim/internal/sim"
)

// conformMain implements `mptcpsim conform`: the fuzz campaign, run twice,
// then the harness's "conformance" table (the fluid oracle) at 3 seeds
// from 1 with 5 s warm-ups and -duration windows. Exits 1 when any
// invariant fails, the two fuzz runs differ or any case's verdict is not
// pass — the regression gate CI runs with -smoke — and 130 on Ctrl-C (each
// stops at its next job boundary).
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
	cfg := mptcpsim.DefaultConfig()
	cfg.Warmup, cfg.Duration = 5*sim.Second, flagSeconds("duration", *duration, 1)
	cfg.Seeds, cfg.BaseSeed, cfg.Workers = 3, 1, *jobs
	lab := mptcpsim.NewLab(mptcpsim.WithConfig(cfg), mptcpsim.WithProgress(meter.observe))
	if *replay >= 0 {
		replayMain(ctx, lab, *seed, *replay, *jsonOut)
		return
	}
	// A window the suite would reject must not wait for the fuzzer.
	if err := cfg.Validate(); err != nil && !*fuzzOnly {
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
	t0 := time.Now()
	fz := mptcpsim.FuzzCampaign()
	fz.N, fz.Seed = *n, *seed
	fuzz, err := lab.Campaign(ctx, *fz)
	if err == nil {
		// Every scenario is a pure function of its seed, so a second run
		// that folds to a different result is a determinism failure.
		var again *mptcpsim.CampaignResult
		if again, err = lab.Campaign(ctx, *fz); err == nil && again.Digest() != fuzz.Digest() {
			err = fmt.Errorf("fuzz re-run not identical: digest %s, then %s", fuzz.Digest(), again.Digest())
		}
	}
	var conf *mptcpsim.Result
	if err == nil && !*fuzzOnly {
		conf, err = lab.Collect(ctx, "conformance")
	}
	meter.clear()
	if err != nil {
		exitOn(err, "interrupted")
	}

	if *jsonOut {
		out := struct {
			Fuzz        *mptcpsim.CampaignResult `json:"fuzz"`
			Conformance *mptcpsim.Result         `json:"conformance,omitempty"`
		}{fuzz, conf}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(out)
	} else {
		renderFuzz(fuzz)
		if conf != nil {
			err = mptcpsim.RenderResult(conf, mptcpsim.FormatText, os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mptcpsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(conform total %v)\n", time.Since(t0).Round(time.Millisecond))
	if fuzz.Violations > 0 || (conf != nil && conformFailed(conf)) {
		os.Exit(1)
	}
}

// conformFailed reports whether any case of the conformance table lacks a
// pass verdict.
func conformFailed(r *mptcpsim.Result) bool {
	v := r.Column("verdict")
	for i := range r.Rows {
		if r.Cell(i, v).Text != "pass" {
			return true
		}
	}
	return false
}

// replayMain re-runs one fuzz scenario by campaign seed and index — the
// command printed for each flagged scenario — and exits 1 if it still
// violates an invariant.
func replayMain(ctx context.Context, lab *mptcpsim.Lab, seed int64, index int, jsonOut bool) {
	fz := mptcpsim.FuzzCampaign()
	fz.Seed = seed
	sp := fz.SampleSpec(index)
	rep, err := lab.Run(ctx, *sp)
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

// renderFuzz prints the fuzz campaign report, then for each flagged
// scenario the one-line command that replays it in isolation.
func renderFuzz(fuzz *mptcpsim.CampaignResult) {
	fmt.Print(fuzz.RenderText())
	for _, name := range fuzz.Flagged {
		fmt.Printf("  replay %s: mptcpsim conform -seed %d -replay %s\n",
			name, fuzz.Seed, strings.TrimPrefix(name, fuzz.Name+"-"))
	}
}
