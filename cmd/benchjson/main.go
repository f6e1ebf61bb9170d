// Command benchjson converts `go test -bench -benchmem` output on stdin to
// a JSON object mapping benchmark name → {ns_per_op, b_per_op, allocs_per_op,
// iterations}, so the repository's performance trajectory is
// machine-readable (see `make bench`, which writes BENCH_kernel.json).
//
// Lines that are not benchmark results are ignored, so the full `go test`
// output can be piped in unfiltered. A benchmark that appears several times
// (`-count N`) is reduced to one entry: the run with the median ns/op (the
// lower middle one for an even count), carrying the largest B/op and
// allocs/op seen, so one noisy run cannot move the timing and no run's
// allocation growth is hidden.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's measurements. Fields missing from the input
// line (for example B/op without -benchmem) stay at their zero value.
type Result struct {
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BPerOp     float64 `json:"b_per_op"`
	AllocsOp   float64 `json:"allocs_per_op"`
}

// parseLine decodes one `BenchmarkName-N  iters  X ns/op  Y B/op  Z allocs/op`
// line. It reports ok=false for anything that is not a benchmark result.
func parseLine(line string) (name string, r Result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name = strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		}
	}
	return name, r, true
}

// collect reads benchmark output and reduces each name's runs to one Result.
func collect(r io.Reader) (map[string]Result, error) {
	runs := make(map[string][]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			runs[name] = append(runs[name], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(runs))
	for name, rs := range runs {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		med := rs[(len(rs)-1)/2]
		for _, r := range rs {
			med.BPerOp = max(med.BPerOp, r.BPerOp)
			med.AllocsOp = max(med.AllocsOp, r.AllocsOp)
		}
		out[name] = med
	}
	return out, nil
}

func main() {
	out, err := collect(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
