package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// smokeEnv runs everything at a twentieth of its size: three ops per
// workload and about a thousand iterations per micro-rig, through the same
// code path as a full run.
func smokeEnv(t *testing.T) *env {
	return &env{ctx: context.Background(), seed: 1, out: t.TempDir(), scale: 0.05}
}

// TestSmoke runs every workload and every rig against the committed
// BENCHMARK.json. A run is correct only if nothing failed and the metrics
// measured are exactly the metrics declared, so this is also what keeps
// the file and the code from drifting apart.
func TestSmoke(t *testing.T) {
	decl, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := decl.checkWorkloads(); err != nil {
		t.Error(err)
	}
	e := smokeEnv(t)
	e.decl = decl
	for _, w := range workloads {
		r, err := runUntraced(e, w, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Attempted < minOps {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, r.Failed, r.Attempted, r.Errors)
		}
		for name, m := range r.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, name, m.Value)
			}
		}
	}
	r, err := runTraced(e, workloads[0], 0, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Errorf("traced pass: %d of %d ops failed: %v", r.Failed, r.Attempted, r.Errors)
	}
	for name := range exactMetrics {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
}

// TestCompare pins the verdicts of -compare: within the bound passes,
// beyond it fails in the metric's worse direction only, a differing exact
// count fails, and a missing cell is unresolved without failing.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(bounds, &benchmarkFile{
		EndToEnd: []metricDef{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "scenarios_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
		PerLayer: []metricDef{
			{Name: "scenario.events_per_op.steady_bulk", Unit: "count", Better: "lower"},
			{Name: "sim.handler_event_ns", Unit: "ns", Better: "lower"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	write := func(name string, opMs, rate, events float64, withWarm bool) string {
		res := results{Seed: 1, Runs: []runResult{
			{Workload: "steady_bulk", Trace: 0, Metrics: map[string]metric{
				"op_ms_p50":       {Value: opMs, Unit: "ms"},
				"scenarios_per_s": {Value: rate, Unit: "1/s"},
			}},
			{Workload: "steady_bulk", Trace: 1, Metrics: map[string]metric{
				"scenario.events_per_op.steady_bulk": {Value: events, Unit: "count"},
				"sim.handler_event_ns":               {Value: opMs, Unit: "ns"},
			}},
		}}
		if withWarm {
			res.Runs = append(res.Runs, runResult{Workload: "population_warm", Trace: 0, Metrics: map[string]metric{
				"op_ms_p50": {Value: 50, Unit: "ms"},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 10, 1000, true)
	for _, tc := range []struct {
		name              string
		opMs, rate, event float64
		code              int
		want              string
	}{
		{"within bounds", 109, 9.1, 1000, 0, "unresolved"},
		{"faster is never a failure", 50, 20, 1000, 0, "pass"},
		{"slower op", 111, 10, 1000, 1, "fail"},
		{"lower rate", 100, 8.9, 1000, 1, "fail"},
		{"exact count moved", 100, 10, 1001, 1, "fail"},
	} {
		var out bytes.Buffer
		other := write("b.json", tc.opMs, tc.rate, tc.event, false)
		if code := compareFiles(bounds, base, other, &out, &out); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.want, out.String())
		}
	}
}
