// Command bench is the repository benchmark: five workloads over the
// simulator's public functions, five end-to-end metrics measured with
// tracing off, and a traced pass that adds one ladder of per-layer metrics
// from spans around each call and from micro-rigs. See README.md here and
// BENCHMARK.json at the repository root.
//
//	go run ./bench -seed 1                  # every workload, both passes
//	go run ./bench -workload steady_bulk -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// metric is one reported number. N is how many samples stand behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is one workload measured in one pass.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// results is the document written to results.json and read by -compare.
type results struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CacheFS    string      `json:"cache_fs"`
	Runs       []runResult `json:"runs"`
}

const (
	// setupReps is how often the untraced pass sets a workload up; setup_s
	// is the median, so a few slow set-ups do not decide it.
	setupReps = 9
	// minOps is the least number of timed ops in a run, whatever the budget.
	minOps = 3
	// miniSeconds is the budget of each workload other than the selected
	// one in a traced run: enough ops for the span-derived layer metrics.
	miniSeconds = 1.0
	// maxErrors bounds the failure messages kept per run.
	maxErrors = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	out := fl.String("out", filepath.Join("bench", "out"), "directory for results.json, trace.json and cache directories")
	compare := fl.Bool("compare", false, "compare two results files: -compare A.json B.json")
	name := fl.String("workload", "", "run one workload (default: all five)")
	seconds := fl.Int("seconds", 10, "seconds each workload is measured for")
	trace := fl.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass; default both")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles("BENCHMARK.json", fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	passes := []int{0, 1}
	if *trace == 0 || *trace == 1 {
		passes = []int{*trace}
	}

	runtime.GOMAXPROCS(workers)
	decl, err := loadBenchmarkFile("BENCHMARK.json")
	if err == nil {
		err = decl.checkWorkloads()
	}
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	e := &env{ctx: context.Background(), decl: decl, seed: *seed, out: *out, scale: 1}
	res := results{
		Seed: *seed, Seconds: float64(*seconds), Go: runtime.Version(),
		GOMAXPROCS: workers, CacheFS: fsName(*out),
	}
	fmt.Fprintf(stdout, "seed %d  seconds %d  %s  GOMAXPROCS %d  cache_fs %s\n",
		res.Seed, *seconds, res.Go, workers, res.CacheFS)
	for _, pass := range passes {
		for _, w := range selected {
			var r runResult
			var err error
			if pass == 0 {
				r, err = runUntraced(e, w, float64(*seconds))
			} else {
				r, err = runTraced(e, w, float64(*seconds), miniSeconds, stdout)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printRun(stdout, decl, &r)
			res.Runs = append(res.Runs, r)
		}
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), &res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for i := range res.Runs {
		if !res.Runs[i].Correct {
			code = 1
		}
	}
	if len(res.Runs) == 1 {
		// The driver's contract: the last line is the run as one JSON object.
		if err := printDriverLine(stdout, &res.Runs[0]); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// measurement is one workload's timed loop.
type measurement struct {
	samples   []opSample
	setupSec  []float64
	attempted int
	failed    int
	errors    []string
}

func (m *measurement) fail(i int, err error) {
	m.failed++
	if len(m.errors) < maxErrors {
		m.errors = append(m.errors, fmt.Sprintf("op %d: %v", i, err))
	}
}

// measure sets the workload up reps times (keeping the last), then runs
// ops in a closed loop, one client, for at least budget seconds and minOps
// ops. With a tracer, odd ops are traced and even ops are not, so the
// overhead of tracing is read inside one run. Campaign caches live only as
// long as one call.
func measure(e *env, w workload, tr *tracer, budget float64, reps int) (*measurement, error) {
	caches := filepath.Join(e.out, "cache")
	if err := os.RemoveAll(caches); err != nil {
		return nil, fmt.Errorf("clearing %s: %w", caches, err)
	}
	defer os.RemoveAll(caches) // best effort: the next call clears leftovers
	m := &measurement{}
	if tr != nil {
		tr.workload, tr.op = w.name, 0
	}
	var in *instance
	for rep := 0; rep < reps; rep++ {
		if in != nil && in.close != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if in, err = w.setup(e, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupSec = append(m.setupSec, time.Since(start).Seconds())
	}
	loop := time.Now()
	for i := 1; i <= minOps || time.Since(loop).Seconds() < budget; i++ {
		optr := tr
		if i%2 == 0 {
			optr = nil
		}
		sample, err := in.run(i, optr)
		m.attempted++
		if err != nil {
			m.fail(i, err)
			continue
		}
		m.samples = append(m.samples, sample)
	}
	if in.close != nil {
		if err := in.close(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runUntraced measures one workload with tracing off and derives the
// end-to-end metrics.
func runUntraced(e *env, w workload, seconds float64) (runResult, error) {
	m, err := measure(e, w, nil, seconds, setupReps)
	if err != nil {
		return runResult{}, err
	}
	r := runResult{
		Workload: w.name, Trace: 0, Correct: m.failed == 0 && len(m.samples) > 0,
		Attempted: m.attempted, Failed: m.failed, Errors: m.errors,
		Metrics: map[string]metric{},
	}
	if len(m.samples) == 0 {
		return r, nil
	}
	var ms, rate []float64
	var scenarios, mallocs, bytes float64
	for _, s := range m.samples {
		ms = append(ms, s.ms)
		rate = append(rate, float64(s.scenarios)/(s.ms/1e3))
		scenarios += float64(s.scenarios)
		mallocs += float64(s.mallocs)
		bytes += float64(s.bytes)
	}
	values := map[string]float64{
		"setup_s":                  quantile(m.setupSec, 0.5),
		"op_ms_p50":                quantile(ms, 0.5),
		"scenarios_per_s":          quantile(rate, 0.5),
		"alloc_bytes_per_scenario": bytes / scenarios,
		"allocs_per_scenario":      mallocs / scenarios,
	}
	for _, d := range e.decl.EndToEnd {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("BENCHMARK.json declares end-to-end metric %s, which this program does not measure", d.Name)
		}
		n := len(m.samples)
		if d.Name == "setup_s" {
			n = len(m.setupSec)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit, N: n}
	}
	if len(r.Metrics) != len(values) {
		return r, fmt.Errorf("BENCHMARK.json declares %d of the %d end-to-end metrics this program measures", len(r.Metrics), len(values))
	}
	return r, nil
}

// runTraced is the traced pass: the selected workload for its full budget,
// every other workload briefly (the span-derived layer metrics need each
// one's spans), then the micro-rigs. It writes trace.json.
func runTraced(e *env, selected workload, seconds, mini float64, stdout io.Writer) (runResult, error) {
	e.series = map[string][]float64{}
	tr := newTracer()
	r := runResult{Workload: selected.name, Trace: 1, Metrics: map[string]metric{}}
	for _, w := range workloads {
		budget := mini
		if w.name == selected.name {
			budget = seconds
		}
		m, err := measure(e, w, tr, budget, 1)
		if err != nil {
			return r, fmt.Errorf("traced %s: %w", w.name, err)
		}
		r.Attempted += m.attempted
		r.Failed += m.failed
		r.Errors = append(r.Errors, m.errors...)
		if w.name == selected.name {
			var traced, plain []float64
			for _, s := range m.samples {
				if s.traced {
					traced = append(traced, s.ms)
				} else {
					plain = append(plain, s.ms)
				}
			}
			if len(traced) > 0 && len(plain) > 0 {
				e.observe("host.trace_overhead_pct", 100*(quantile(traced, 0.5)/quantile(plain, 0.5)-1))
				e.observe("host.op_ms_p90", quantile(plain, 0.9))
			}
		}
	}
	if err := runRigs(e); err != nil {
		return r, err
	}
	observeSpans(e, tr)
	observeHost(e)
	// BENCHMARK.json is the one list of per-layer metrics: each is the
	// median of the series observed under its name, and a name on one side
	// only is an error, so the file and this code cannot drift apart.
	var stray []string
	for _, d := range e.decl.PerLayer {
		s := e.series[d.Name]
		if len(s) == 0 {
			stray = append(stray, d.Name+" (declared, not measured)")
			continue
		}
		r.Metrics[d.Name] = metric{Value: quantile(s, 0.5), Unit: d.Unit, N: len(s)}
	}
	for name := range e.series {
		if _, ok := r.Metrics[name]; !ok {
			stray = append(stray, name+" (measured, not declared)")
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		r.Errors = append(r.Errors, "BENCHMARK.json and the code disagree: "+strings.Join(stray, ", "))
	}
	r.Correct = r.Failed == 0 && len(stray) == 0
	self := tr.selfTimes()
	printSelfTimes(stdout, self)
	if err := tr.write(filepath.Join(e.out, "trace.json"), self); err != nil {
		return r, err
	}
	return r, nil
}

// observeHost records the process-level numbers of the traced pass.
func observeHost(e *env) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.observe("host.gc_cpu_share", ms.GCCPUFraction)
	if kb, err := peakRSSKB(); err == nil {
		e.observe("host.peak_rss_mb", kb/1024)
	}
	// run.sh stamps the clock on both sides of its `go build`; under a
	// plain `go run` the build is not observable and reads 0.
	start, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_START"), 64)
	end, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_END"), 64)
	e.observe("host.build_s", end-start)
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// fsName names the filesystem the cache directories live on: campaign
// cache writes are the one place the benchmark touches a disk, and their
// cost differs severalfold between tmpfs and a journalled filesystem.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch int64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified. stats.Percentile computes the same, but
// the instrument does not borrow its arithmetic from the code it measures.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func printRun(w io.Writer, decl *benchmarkFile, r *runResult) {
	fmt.Fprintf(w, "\n%s  trace %d  attempted %d  failed %d  failed_ratio %g\n",
		r.Workload, r.Trace, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, msg := range r.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", msg)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tvalue\tunit\tn")
	defs := decl.EndToEnd
	if r.Trace == 1 {
		defs = decl.PerLayer
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\n", d.Name, r.Workload, m.Value, m.Unit, m.N)
		}
	}
	tw.Flush()
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintln(w, "\nspan self time (span - children), traced ops only")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tspan\tcount\ttotal_ms\tself_ms")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\n", row.Workload, row.Name, row.Count, row.TotalMs, row.SelfMs)
	}
	tw.Flush()
}

// printDriverLine prints the run as the one-line JSON object the driver
// reads: exactly correct, attempted, failed and metrics.
func printDriverLine(w io.Writer, r *runResult) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
