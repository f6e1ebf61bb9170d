package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mptcpsim"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/runner"
)

// campaignMain implements `mptcpsim campaign`: sample a population of
// scenarios from a parameter-distribution spec, run them on the worker
// pool, and print the streamed aggregates. The spec starts from the
// default dual-homed population; -spec overlays a JSON file over it, and
// -n/-seed override the campaign size and seed last. With -cache every
// completed scenario is stored content-addressed, so re-running an
// unchanged campaign simulates nothing.
func campaignMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "JSON campaign spec, overlaid on the default population")
		n        = fs.Int("n", 0, "override the number of scenarios")
		seed     = fs.Int64("seed", 0, "override the campaign seed")
		jobs     = fs.Int("j", 0, "parallel simulation workers (0 = all CPUs)")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory")
		format   = fs.String("format", "text", "output format: text or json")
		out      = fs.String("o", "", "write output to this file instead of stdout")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mptcpsim campaign [-spec file.json] [-n N] [-seed S] [-j W] [-cache dir] [-format text|json] [-o file]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	spec := mptcpsim.DefaultCampaign()
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fail(err)
		}
		spec, err = campaign.Decode(f)
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %w", *specPath, err))
		}
	}
	if *n != 0 {
		spec.N = *n
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	spec.CacheDir = *cacheDir

	switch *format {
	case "text", "json", "":
	default:
		fail(fmt.Errorf("unknown campaign format %q (want text or json)", *format))
	}
	exitOn(runCampaign(ctx, *spec, *jobs, *format, *out),
		"interrupted — the scenarios finished in order before the interruption stay cached; re-run to resume")
}

// runCampaign runs the campaign on a Lab and writes the result, as JSON
// when format is "json" and as text otherwise, to outPath (or stdout).
// Every error is returned, the ones from writing and closing the output
// file included, so a full disk exits non-zero instead of leaving a
// truncated result behind a success.
func runCampaign(ctx context.Context, spec mptcpsim.CampaignSpec, jobs int, format, outPath string) error {
	return withOutput(outPath, func(w io.Writer) error {
		meter := newMeter()
		lab := mptcpsim.NewLab(mptcpsim.WithWorkers(jobs), mptcpsim.WithProgress(meter.observe))
		t0 := time.Now()
		res, err := lab.Campaign(ctx, spec)
		meter.clear()
		if err != nil {
			return err
		}
		var data []byte
		if format == "json" {
			if data, err = res.RenderJSON(); err != nil {
				return err
			}
		} else {
			data = []byte(res.RenderText())
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(%d simulated, %d cached in %v on %d workers)\n",
			res.Simulated, res.CacheHits, time.Since(t0).Round(time.Millisecond), runner.Workers(jobs))
		return nil
	})
}
