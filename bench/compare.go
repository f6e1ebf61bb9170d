package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json this program reads: the
// workload names, and the metric names with their direction and, end to
// end, the share of the baseline by which each may worsen.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	var bf benchmarkFile
	if err := readJSON(path, &bf); err != nil {
		return nil, err
	}
	return &bf, nil
}

// checkWorkloads requires the file to declare exactly the workloads this
// program runs, in order.
func (bf *benchmarkFile) checkWorkloads() error {
	var declared, have []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		return fmt.Errorf("BENCHMARK.json declares workloads %v, this program runs %v", declared, have)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// cell addresses one number of a results file.
type cell struct {
	workload string
	trace    int
	metric   string
}

// cells indexes a results file; a file holding several runs of one
// workload and pass yields several values per cell, compared by median.
func cells(r *results) map[cell][]float64 {
	out := map[cell][]float64{}
	for _, run := range r.Runs {
		for name, m := range run.Metrics {
			c := cell{run.Workload, run.Trace, name}
			out[c] = append(out[c], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per (metric, workload) of two results files
// and judges B against A. An end-to-end metric passes when B's median is
// no worse than A's by more than its bound in BENCHMARK.json; an exact
// per-layer count (same seed only) passes when identical; a cell missing
// on one side is unresolved; other per-layer metrics have no bound and are
// shown unjudged. The exit code is 1 if any row fails.
func compareFiles(benchPath, aPath, bPath string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile(benchPath)
	var a, b results
	if err == nil {
		err = readJSON(aPath, &a)
	}
	if err == nil {
		err = readJSON(bPath, &b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	av, bv := cells(&a), cells(&b)
	failed := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tA\tB\tdiff\tbound\tverdict")
	row := func(c cell, def metricDef, bounded bool) {
		x, y := av[c], bv[c]
		if len(x) == 0 && len(y) == 0 {
			return
		}
		if len(x) == 0 || len(y) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t\tunresolved\n", c.metric, c.workload, show(x), show(y))
			return
		}
		ma, mb := quantile(x, 0.5), quantile(y, 0.5)
		diff := (mb - ma) / ma
		worse := diff
		if def.Better == "higher" {
			worse = -diff
		}
		bound, verdict := "", "-"
		switch {
		case bounded:
			bound = fmt.Sprintf("%g%%", 100*def.Bound)
			verdict = "pass"
			if worse > def.Bound {
				verdict = "fail"
			}
		case exactMetrics[c.metric] && a.Seed == b.Seed:
			bound, verdict = "exact", "pass"
			if ma != mb {
				verdict = "fail"
			}
		}
		if verdict == "fail" {
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n", c.metric, c.workload, ma, mb, 100*diff, bound, verdict)
	}
	for _, w := range workloads {
		for _, def := range bf.EndToEnd {
			row(cell{w.name, 0, def.Name}, def, true)
		}
	}
	for _, w := range workloads {
		for _, def := range bf.PerLayer {
			row(cell{w.name, 1, def.Name}, def, false)
		}
	}
	tw.Flush()
	if failed > 0 {
		fmt.Fprintf(stdout, "%d rows fail\n", failed)
		return 1
	}
	return 0
}

func show(xs []float64) string {
	if len(xs) == 0 {
		return "missing"
	}
	return fmt.Sprintf("%.6g", quantile(xs, 0.5))
}
