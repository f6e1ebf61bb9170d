// Command mptcpsim lists, runs and compares the paper-reproduction
// experiments.
//
// Usage:
//
//	mptcpsim -list
//	mptcpsim -run fig9,table1
//	mptcpsim -all
//	mptcpsim -all -full            # paper-scale (120s runs, 5 seeds, K=8)
//	mptcpsim -all -j 8             # fan simulations out over 8 workers
//	mptcpsim -run fig13a -seeds 3 -duration 90
//	mptcpsim -run fig1b -format json -o fig1b.json
//	mptcpsim -all -format csv -o results.csv
//	mptcpsim diff old.json new.json          # per-cell regression deltas
//	mptcpsim diff -tol 5 old.json new.json   # tolerate 5% relative drift
//	mptcpsim conform                         # scenario fuzzer + cross-model suite
//	mptcpsim conform -smoke                  # CI scale (40 scenarios, 20 s windows)
//	mptcpsim conform -fuzz-only              # invariant fuzzer alone
//	mptcpsim conform -seed 1 -replay 42      # re-run one fuzz scenario by index
//	mptcpsim campaign -n 1000 -cache .cache  # Monte Carlo population sweep
//	mptcpsim campaign -spec pop.json -format json -o out.json
//	mptcpsim serve -addr :8377 -cache .cache # campaign engine as an HTTP job API
//	mptcpsim trace -algo olia -tcp2 10 > fig8.csv   # window/α evolution of a two-path user, CSV
//	mptcpsim profile -spec s.json -cpuprofile cpu.out   # per run of one scenario: time, events, heap_max, data_max, acks_max, queue work per event, allocations; then events by handler kind
//	mptcpsim -version                        # code version (hash of the API surface)
//
// Independent simulations (experiments × sweep points × seeds) run
// concurrently on -j workers (default: all CPUs); every RNG seed derives
// from the base seed and the job's position in the sweep, so output is
// byte-identical to a sequential (-j 1) run in every format.
//
// Long runs are observable and interruptible: when stderr is a terminal a
// live progress line tracks experiments and simulation jobs, and a single
// Ctrl-C cancels the run gracefully — completed experiments are flushed,
// workers drain at the next job boundary, and the process exits 130.
//
// -format selects the renderer: text (the paper's aligned tables), json
// (one array of structured Result objects), or csv (one block per
// experiment). The diff subcommand reads two files written with
// -format json, pairs results by experiment ID, and reports every
// differing cell — the seed of regression gating: it exits 1 when any
// cell drifts beyond -tol percent.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"mptcpsim"
	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

func main() {
	// A single Ctrl-C cancels the run gracefully; a second one kills the
	// process via the restored default handler — AfterFunc unregisters the
	// handler the moment the context cancels, since NotifyContext alone
	// would keep swallowing signals until the deferred stop runs at exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	if len(os.Args) > 1 && os.Args[1] == "diff" {
		diffMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "conform" {
		conformMain(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		campaignMain(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceMain(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		profileMain(ctx, os.Args[2:])
		return
	}
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		run      = flag.String("run", "", "comma-separated experiment IDs to run")
		all      = flag.Bool("all", false, "run every experiment")
		full     = flag.Bool("full", false, "paper-scale configuration (slow)")
		seeds    = flag.Int("seeds", 0, "override repetitions per point")
		duration = flag.Float64("duration", 0, "override testbed run seconds")
		dcdur    = flag.Float64("dcduration", 0, "override data-center run seconds")
		k        = flag.Int("k", 0, "override FatTree arity (even)")
		jobs     = flag.Int("j", 0, "parallel simulation workers (0 = all CPUs, 1 = sequential)")
		format   = flag.String("format", "text", "output format: text, json, or csv")
		out      = flag.String("o", "", "write output to this file instead of stdout")
		version  = flag.Bool("version", false, "print the code version (hash of the locked API surface) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(mptcpsim.Version())
		return
	}

	cfg := mptcpsim.DefaultConfig()
	if *full {
		cfg = mptcpsim.FullConfig()
	}
	// Non-zero overrides pass through verbatim: bad values (negative
	// counts, odd arity) are rejected by Config.Validate with a real
	// error instead of being silently ignored; only a window no scenario
	// can hold is rejected here, before sim.Seconds would wrap it.
	if *seeds != 0 {
		cfg.Seeds = *seeds
	}
	if *duration != 0 {
		cfg.Duration = flagSeconds("duration", *duration, 1)
	}
	if *dcdur != 0 {
		cfg.DCDuration = flagSeconds("dcduration", *dcdur, 1)
	}
	if *k != 0 {
		cfg.FatTreeK = *k
	}
	cfg.Workers = *jobs

	f, err := mptcpsim.ParseFormat(*format)
	if err != nil {
		fail(err)
	}

	switch {
	case *list:
		listExperiments(os.Stdout)
	case *all:
		exitOn(runAll(ctx, nil, cfg, f, *out), "interrupted — completed experiments were flushed")
	case *run != "":
		var ids []string
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "mptcpsim: -run needs at least one experiment ID")
			os.Exit(2)
		}
		exitOn(runAll(ctx, ids, cfg, f, *out), "interrupted — completed experiments were flushed")
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// listExperiments writes the registry as three columns, the first two as
// wide as their widest entry plus a space, so every title starts at the
// header's TITLE.
func listExperiments(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	fmt.Fprintln(tw, "ID\tPAPER\tTITLE")
	for _, e := range mptcpsim.Experiments() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", e.ID, e.PaperRef, e.Title)
	}
	tw.Flush()
}

// errLine renders an error for stderr without doubling the program
// prefix: *mptcpsim.Error already reads "mptcpsim: <op> ...".
func errLine(err error) string {
	var apiError *mptcpsim.Error
	if errors.As(err, &apiError) {
		return err.Error()
	}
	return "mptcpsim: " + err.Error()
}

// fail reports a usage-level error and exits 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, errLine(err))
	os.Exit(2)
}

// exitOn maps a run error to the process exit code: 0 on success, 130 on
// graceful cancellation (the shell convention for SIGINT, reported with
// cancelMsg), 1 otherwise. It is the single exit-policy for every
// subcommand.
func exitOn(err error, cancelMsg string) {
	switch {
	case err == nil:
	case errors.Is(err, mptcpsim.ErrCanceled), errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "mptcpsim: "+cancelMsg)
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
}

// flagSeconds converts the value v of the seconds flag -name to sim.Time.
// A value that is not a number, or whose magnitude passes what a scenario
// can hold (scenario.MaxSpecSec), would wrap in sim.Seconds: it is reported
// with the flag's name, and the process exits with code.
func flagSeconds(name string, v float64, code int) sim.Time {
	if !(math.Abs(v) <= scenario.MaxSpecSec) {
		fmt.Fprintf(os.Stderr, "mptcpsim: invalid configuration: -%s %g: not a number of seconds within ±%g\n", name, v, float64(scenario.MaxSpecSec))
		os.Exit(code)
	}
	return sim.Seconds(v)
}

// withOutput hands write the file at outPath (created, truncated), or
// stdout when outPath is empty. The error from closing the file surfaces
// the way write's own does: a full disk must not leave a truncated file
// behind a zero exit code.
func withOutput(outPath string, write func(w io.Writer) error) (err error) {
	if outPath == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// runAll executes the selected experiments on a Lab and writes the output
// to outPath (or stdout). All errors, the ones from writing and closing the
// output file included, are returned so main can exit non-zero on a short
// write.
func runAll(ctx context.Context, ids []string, cfg mptcpsim.Config, format mptcpsim.Format, outPath string) error {
	return withOutput(outPath, func(w io.Writer) error {
		meter := newMeter()
		lab := mptcpsim.NewLab(mptcpsim.WithConfig(cfg), mptcpsim.WithProgress(meter.observe))
		workers := runner.Workers(cfg.Workers)
		t0 := time.Now()
		err := lab.RunAll(ctx, ids, format, w)
		meter.clear()
		if err != nil {
			return err
		}
		// Timing goes to stderr so machine-readable stdout stays parseable.
		fmt.Fprintf(os.Stderr, "(total %v on %d workers)\n", time.Since(t0).Round(time.Millisecond), workers)
		return nil
	})
}

// diffMain implements `mptcpsim diff a.json b.json`: load two result sets
// written with -format json, pair them by experiment ID, and report every
// per-cell delta. Exits 1 when any cell drifts beyond -tol percent (or a
// result's shape changed), 0 when everything matches.
func diffMain(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tol", 0, "tolerated relative drift per cell, in percent")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mptcpsim diff [-tol pct] old.json new.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mptcpsim: %v\n", err)
		os.Exit(1)
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mptcpsim: %v\n", err)
		os.Exit(1)
	}
	byID := make(map[string]*mptcpsim.Result, len(b))
	for _, r := range b {
		byID[r.ID] = r
	}
	failed := false
	for _, ra := range a {
		rb, ok := byID[ra.ID]
		if !ok {
			fmt.Printf("%s: missing from %s\n", ra.ID, fs.Arg(1))
			failed = true
			continue
		}
		delete(byID, ra.ID)
		d := mptcpsim.Diff(ra, rb)
		d.RenderText(os.Stdout)
		if len(d.ShapeNotes) > 0 {
			failed = true
		}
		for _, c := range d.Cells {
			// Text changes and deltas without a relative measure (zero or
			// NaN baseline) always exceed the tolerance.
			if c.TextA != "" || c.TextB != "" || c.NoBaseline || c.RelPct > *tol {
				failed = true
				break
			}
		}
	}
	for _, r := range b {
		if _, orphan := byID[r.ID]; orphan {
			fmt.Printf("%s: missing from %s\n", r.ID, fs.Arg(0))
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadResults reads a JSON file holding either one Result object or an
// array of them (the -format json output). Files that parse but contain no
// results — `null`, `[]`, or an empty object — are rejected: a vacuous
// diff input would make any comparison against it pass trivially.
func loadResults(path string) ([]*mptcpsim.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*mptcpsim.Result
	if err := json.Unmarshal(data, &many); err == nil {
		rs := many[:0]
		for _, r := range many {
			if r != nil && !vacuous(r) {
				rs = append(rs, r)
			}
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("%s: contains no results", path)
		}
		return rs, nil
	}
	var one mptcpsim.Result
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: not a Result or []Result JSON file: %w", path, err)
	}
	if vacuous(&one) {
		return nil, fmt.Errorf("%s: contains no results", path)
	}
	return []*mptcpsim.Result{&one}, nil
}

// vacuous reports whether a decoded Result carries no actual content (the
// product of diffing a `{}` or `[{}]` file).
func vacuous(r *mptcpsim.Result) bool { return r.ID == "" && len(r.Rows) == 0 }
