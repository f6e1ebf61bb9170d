package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// profileRuns is how many measured runs `mptcpsim profile` makes after its
// warm-up run: enough to see the spread of a run's wall time.
const profileRuns = 5

// profileMain implements `mptcpsim profile`: run one scenario Spec
// profileRuns times after a warm-up run, and print per run its wall time,
// kernel events, event rate, then from its report's Stats the most events
// pending at once (heap_max), the data segments and ACKs its pool carved
// slabs for (data_max and acks_max: the most of each kind alive at once,
// rounded up to a slab; an ACK costs about twice a data segment's bytes,
// for its SACK report) and the iterations of the kernel heap's sift loops
// per event, down and up (sift_down/ev, sift_up/ev), then allocations and
// allocated bytes; after the runs, which all do the same work, the events
// by handler kind (sim.Kind); optionally under the CPU profiler and with
// every allocation recorded:
//
//	mptcpsim profile -spec s.json -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//	go tool pprof -sample_index=alloc_objects -top mem.out
//
// A bad flag, a spec that does not decode (unknown fields and trailing data
// included) or validate, and a profile file that cannot be created are
// usage errors (exit 2); a failed run or profile write exits 1.
func profileMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "JSON scenario spec (required)")
		cpuPath  = fs.String("cpuprofile", "", "write a CPU profile of the measured runs to this file")
		memPath  = fs.String("memprofile", "", "write an allocation profile of the measured runs to this file (records every allocation, which slows them)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mptcpsim profile -spec file.json [-cpuprofile file] [-memprofile file]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	switch {
	case *specPath == "":
		fail(errors.New("profile: -spec is required"))
	case fs.NArg() > 0:
		fail(fmt.Errorf("profile: unexpected argument %q", fs.Arg(0)))
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *specPath, err))
	}
	var cpu, mem *os.File
	if *cpuPath != "" {
		if cpu, err = os.Create(*cpuPath); err != nil {
			fail(err)
		}
	}
	if *memPath != "" {
		if mem, err = os.Create(*memPath); err != nil {
			fail(err)
		}
	}
	exitOn(profile(ctx, sp, cpu, mem, os.Stdout), "interrupted")
}

// readSpec decodes one scenario Spec, rejecting unknown fields and anything
// but white space after it, and validates it.
func readSpec(path string) (*scenario.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var sp scenario.Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("data after the JSON value")
	}
	return &sp, sp.Validate()
}

// profile runs sp once to warm up, then profileRuns times with the
// profilers on, writing one row per measured run to w. It closes the
// profile files, and a failure to write either is its error. pprof drops
// its writer's errors, so both profiles are built in memory and written
// once the runs are done, where a full disk is seen.
func profile(ctx context.Context, sp *scenario.Spec, cpu, mem *os.File, w io.Writer) (err error) {
	for _, f := range []*os.File{cpu, mem} {
		if f != nil {
			defer func() {
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
		}
	}
	warm, err := runSpec(ctx, sp)
	if err != nil {
		return err
	}
	if mem != nil {
		runtime.MemProfileRate = 1
	}
	var cpuBuf bytes.Buffer
	if cpu != nil {
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%4s %10s %10s %12s %8s %8s %8s %12s %10s %9s %11s\n", "run", "wall_ms", "events", "events_per_s",
		"heap_max", "data_max", "acks_max", "sift_down/ev", "sift_up/ev", "allocs", "bytes")
	var before, after runtime.MemStats
	for i := 1; i <= profileRuns; i++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		rep, err := runSpec(ctx, sp)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err == nil && rep.Stats != warm.Stats {
			err = fmt.Errorf("profile: run %d did other work than the warm-up run: %+v, then %+v", i, warm.Stats, rep.Stats)
		}
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		st, events := &rep.Stats, float64(rep.Processed)
		fmt.Fprintf(w, "%4d %10.2f %10d %12.0f %8d %8d %8d %12.3f %10.3f %9d %11d\n", i, wall.Seconds()*1e3, rep.Processed,
			events/wall.Seconds(), st.HeapMax, st.DataMax, st.AcksMax, float64(st.SiftDown)/events, float64(st.SiftUp)/events,
			after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	}
	fmt.Fprintf(w, "\n%-8s %10s %6s\n", "kind", "events", "share")
	for k, n := range warm.Stats.Events {
		fmt.Fprintf(w, "%-8s %10d %5.1f%%\n", sim.Kind(k), n, 100*float64(n)/float64(warm.Processed))
	}
	if cpu != nil {
		pprof.StopCPUProfile()
		if _, err := cpu.Write(cpuBuf.Bytes()); err != nil {
			return err
		}
	}
	if mem != nil {
		var buf bytes.Buffer
		if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
			return err
		}
		_, err := mem.Write(buf.Bytes())
		return err
	}
	return nil
}

// runSpec runs sp. An invariant violation is a failed run.
func runSpec(ctx context.Context, sp *scenario.Spec) (*scenario.RunReport, error) {
	rep, err := scenario.Run(ctx, sp)
	if err == nil && len(rep.Violations) != 0 {
		err = fmt.Errorf("profile: invariant violations: %v", rep.Violations)
	}
	return rep, err
}
