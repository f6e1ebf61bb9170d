package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/md5"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mptcpsim"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// mptcpsimTestMain is the environment variable that turns the test binary
// into the CLI (see TestMain).
const mptcpsimTestMain = "MPTCPSIM_TEST_MAIN"

// TestMain lets a test run the CLI itself: the test binary started with
// mptcpsimTestMain set is mptcpsim, with its arguments and its exit code.
func TestMain(m *testing.M) {
	if os.Getenv(mptcpsimTestMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCampaignSpecTrailingData: a -spec file is one JSON object. Bytes
// after it used to be ignored, so a concatenated or half-edited file ran
// its first object; now the CLI reports the file and exits 2, before any
// scenario runs.
func TestCampaignSpecTrailingData(t *testing.T) {
	for _, body := range []string{`{} garbage`, `{}{"n":9}`} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "campaign", "-spec", path, "-n", "1")
		cmd.Env = append(os.Environ(), mptcpsimTestMain+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: err %v, want exit status 2; output:\n%s", body, err, out)
		}
		if !strings.Contains(string(out), path) || !strings.Contains(string(out), "after the JSON value") {
			t.Errorf("%q: output does not name the file and the problem:\n%s", body, out)
		}
	}
}

// TestProfile runs the profile subcommand as a process: a spec runs after a
// warm-up, profileRuns times, with a row each, then the histogram of its
// events by kind, which sums to the events column, and both profiles are
// written;
// usage errors exit 2 before any run, and a profile of either kind that
// cannot be written exits 1.
func TestProfile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	data, err := json.Marshal(scenario.PaperTwoLink(10, 1, 1, "olia", 1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	spec := write("spec.json", string(data))
	profile := func(args ...string) (string, int) {
		cmd := exec.Command(os.Args[0], append([]string{"profile"}, args...)...)
		cmd.Env = append(os.Environ(), mptcpsimTestMain+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	out, code := profile("-spec", spec, "-cpuprofile", cpu, "-memprofile", mem)
	runs, hist, _ := strings.Cut(strings.TrimSpace(out), "\n\n")
	lines := strings.Split(runs, "\n")
	if code != 0 || len(lines) != 1+profileRuns || !strings.HasPrefix(strings.TrimSpace(lines[profileRuns]), fmt.Sprint(profileRuns, " ")) {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if got := strings.Fields(lines[0]); strings.Join(got, " ") != "run wall_ms events events_per_s heap_max data_max acks_max sift_down/ev sift_up/ev allocs bytes" {
		t.Errorf("header %q", lines[0])
	}
	fields := strings.Fields(lines[1])
	if len(fields) != 11 || fields[2] == "0" || fields[4] == "0" || fields[5] == "0" || fields[6] == "0" || fields[7] == "0.000" {
		t.Fatalf("run row %q: want run, wall_ms, events, events_per_s, heap_max, data_max, acks_max, sift_down/ev, sift_up/ev, allocs, bytes with events, heap_max, data_max, acks_max and sift_down/ev > 0", lines[1])
	}
	// The histogram has a row per kind, and its counts add up to the
	// events every run processed.
	rows := strings.Split(hist, "\n")
	if len(rows) != 1+int(sim.NumKinds) || strings.Join(strings.Fields(rows[0]), " ") != "kind events share" {
		t.Fatalf("histogram:\n%s", hist)
	}
	var sum uint64
	for k, row := range rows[1:] {
		f := strings.Fields(row)
		n, err := strconv.ParseUint(f[1], 10, 64)
		if len(f) != 3 || f[0] != sim.Kind(k).String() || err != nil {
			t.Fatalf("histogram row %q: want kind %s, a count and a share", row, sim.Kind(k))
		}
		sum += n
	}
	if fmt.Sprint(sum) != fields[2] {
		t.Errorf("histogram counts add up to %d, the runs processed %s events", sum, fields[2])
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no spec", nil, "-spec is required"},
		{"stray argument", []string{"-spec", spec, "extra"}, `unexpected argument "extra"`},
		{"missing file", []string{"-spec", filepath.Join(dir, "none.json")}, "no such file"},
		{"unknown field", []string{"-spec", write("unknown.json", `{"sede":1}`)}, `unknown field "sede"`},
		{"trailing data", []string{"-spec", write("trailing.json", string(data)+" {}")}, "after the JSON value"},
		{"invalid spec", []string{"-spec", write("invalid.json", `{"duration_sec":0}`)}, "duration must be positive"},
	} {
		if out, code := profile(tc.args...); code != 2 || !strings.Contains(out, tc.want) || strings.Contains(out, "wall_ms") {
			t.Errorf("%s: exit %d, want 2 and %q before any run; output:\n%s", tc.name, code, tc.want, out)
		}
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		for _, flag := range []string{"-cpuprofile", "-memprofile"} {
			if out, code := profile("-spec", spec, flag, "/dev/full"); code != 1 {
				t.Errorf("%s /dev/full: exit %d, want 1; output:\n%s", flag, code, out)
			}
		}
	}
}

// TestLoadResultsRejectsVacuousFiles pins the diff-input guard: files that
// parse but hold no results (null, [], {}) must be rejected instead of
// making any diff against them pass vacuously.
func TestLoadResultsRejectsVacuousFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, tc := range []struct{ name, content string }{
		{"null.json", "null"},
		{"empty-array.json", "[]"},
		{"null-elements.json", "[null, null]"},
		{"empty-object.json", "{}"},
		{"empty-objects-array.json", "[{}, {}]"},
	} {
		if _, err := loadResults(write(tc.name, tc.content)); err == nil {
			t.Errorf("%s: accepted a file with no results", tc.name)
		} else if !strings.Contains(err.Error(), "contains no results") {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}

	if _, err := loadResults(write("garbage.json", "not json")); err == nil {
		t.Error("accepted non-JSON input")
	}
	if _, err := loadResults(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("accepted a missing file")
	}

	one := `{"id":"fig1b","columns":[{"name":"x"}],"rows":[[{"value":1}]]}`
	rs, err := loadResults(write("one.json", one))
	if err != nil || len(rs) != 1 || rs[0].ID != "fig1b" {
		t.Fatalf("single result: %v, %v", rs, err)
	}
	rs, err = loadResults(write("many.json", "["+one+"]"))
	if err != nil || len(rs) != 1 || rs[0].ID != "fig1b" {
		t.Fatalf("array result: %v, %v", rs, err)
	}
}

// TestCampaignReportsOutputError: a result that cannot be written is a
// failure, in either format — /dev/full accepts the open and refuses every
// byte, as a full disk does.
func TestCampaignReportsOutputError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	spec := *mptcpsim.DefaultCampaign()
	spec.N = 1
	for _, format := range []string{"text", "json"} {
		if err := runCampaign(context.Background(), spec, 1, format, "/dev/full"); err == nil {
			t.Errorf("-format %s -o /dev/full reported success", format)
		}
	}
	out := filepath.Join(t.TempDir(), "result.txt")
	if err := runCampaign(context.Background(), spec, 1, "text", out); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(out); err != nil || !strings.Contains(string(data), "user_goodput_mbps") {
		t.Errorf("result file holds %q, %v", data, err)
	}
}

// TestTraceCSV pins the trace subcommand's bytes to what the olia-trace
// binary it replaced printed for the same flags (-seconds 20, the rest at
// their defaults), and its cancellation: a run under a cancelled context
// stops at a one-second boundary and writes nothing.
func TestTraceCSV(t *testing.T) {
	traced := func(seconds float64) (*scenario.Spec, []string) {
		sp := scenario.PaperTwoLink(10, 5, 5, "olia", 1, 0, seconds)
		return sp, traceColumns(sp, "olia", 250)
	}
	var buf bytes.Buffer
	sp, names := traced(20)
	if err := writeTrace(context.Background(), sp, names, &buf); err != nil {
		t.Fatal(err)
	}
	const want = "af7994b89dbf34e3b4318f2161f2b7c1"
	if got := fmt.Sprintf("%x", md5.Sum(buf.Bytes())); got != want {
		t.Fatalf("trace CSV md5 %s, want %s (olia-trace -seconds 20); first line %q", got, want, strings.SplitN(buf.String(), "\n", 2)[0])
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf.Reset()
	sp, names = traced(1e6)
	err := writeTrace(ctx, sp, names, &buf)
	if !errors.Is(err, context.Canceled) || buf.Len() != 0 {
		t.Fatalf("cancelled trace: err %v, %d bytes written", err, buf.Len())
	}
}

// TestTraceRejectsNonpositivePeriod: a sampling period that is zero,
// negative or below one nanosecond is a usage error (exit 2, before any
// compile), not a panic out of the run.
func TestTraceRejectsNonpositivePeriod(t *testing.T) {
	for _, period := range []string{"0", "-0.25", "1e-10"} {
		cmd := exec.Command(os.Args[0], "trace", "-period", period, "-seconds", "1")
		cmd.Env = append(os.Environ(), mptcpsimTestMain+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-period %s: err %v, want exit status 2; output:\n%s", period, err, out)
		}
		if !strings.Contains(string(out), "positive sampling period") || strings.Contains(string(out), "goroutine") {
			t.Errorf("-period %s: output is not the usage error:\n%s", period, out)
		}
	}
}

// TestRunRejectsOverlongWindow: a run window longer than a scenario can
// hold is a configuration error, reported before any job runs, not a
// panic out of every job's compile.
func TestRunRejectsOverlongWindow(t *testing.T) {
	for _, args := range [][]string{{"-run", "fig1b", "-duration", "2e6"}, {"-run", "fig13a", "-dcduration", "2e6"}} {
		// Before the check, the fat tree ran on for 2e6 simulated seconds.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), mptcpsimTestMain+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit status 1; output:\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "invalid configuration") || strings.Contains(string(out), "goroutine") {
			t.Errorf("%v: output is not the configuration error:\n%s", args, out)
		}
	}
}

// TestWriteCSV pins the CSV layout: a "t,<names>" header, then one row per
// sample, seconds to three places and values to four.
func TestWriteCSV(t *testing.T) {
	tr := &scenario.TraceReport{T: []sim.Time{0, 500 * sim.Millisecond, sim.Second}, V: [][]float64{{7, 7, 7}}}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	writeCSV(w, []string{"x"}, tr)
	w.Flush()
	if want := "t,x\n0.000,7.0000\n0.500,7.0000\n1.000,7.0000\n"; b.String() != want {
		t.Fatalf("CSV %q, want %q", b.String(), want)
	}
}

// TestWriteCSVEmpty: a trace with no samples yet is the header alone.
func TestWriteCSVEmpty(t *testing.T) {
	tr := &scenario.TraceReport{V: [][]float64{nil}}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	writeCSV(w, []string{"x"}, tr)
	w.Flush()
	if b.String() != "t,x\n" {
		t.Fatalf("empty CSV %q", b.String())
	}
}

// TestConformRejectsBadConfig: a conformance window that is not a positive
// number of seconds, or that with the 5 s warm-up is longer than a
// scenario can hold, and a negative worker count are configuration errors
// reported before the fuzzer runs (exit 1 at once, not a panic). A window
// sim.Time cannot hold is refused by name before it is converted; the
// rest by the harness's Config.Validate.
func TestConformRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-duration", "2e6"}, "mptcpsim: invalid configuration: -duration 2e+06: "},
		{[]string{"-duration", "-1"}, "mptcpsim: harness: "},
		{[]string{"-duration", "NaN"}, "mptcpsim: invalid configuration: -duration NaN: "},
		{[]string{"-duration", "+Inf"}, "mptcpsim: invalid configuration: -duration +Inf: "},
		{[]string{"-duration", "1e300"}, "mptcpsim: invalid configuration: -duration 1e+300: "},
		{[]string{"-j", "-1"}, "mptcpsim: harness: "},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"conform"}, tc.args...)...)
		cmd.Env = append(os.Environ(), mptcpsimTestMain+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit status 1; output:\n%s", tc.args, err, out)
		}
		if !strings.HasPrefix(string(out), tc.want) || strings.Contains(string(out), "fuzz:") {
			t.Errorf("%v: output is not the configuration error %q alone:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestSecondsFlagsRejectUnrepresentable: a seconds flag whose value is not
// a number or is longer than a scenario can hold is refused with the flag
// and the value named, before sim.Seconds could wrap it to a negative
// time: exit 1 where a bad configuration exits 1, 2 for trace's usage
// errors.
func TestSecondsFlagsRejectUnrepresentable(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
		code int
	}{
		{[]string{"-run", "fig1b"}, "duration", 1},
		{[]string{"-run", "fig13a"}, "dcduration", 1},
		{[]string{"trace"}, "seconds", 2},
		{[]string{"trace"}, "period", 2},
	} {
		for _, v := range []string{"NaN", "+Inf", "-Inf", "1e300"} {
			args := append(tc.args[:len(tc.args):len(tc.args)], "-"+tc.flag, v)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), mptcpsimTestMain+"=1")
			out, err := cmd.CombinedOutput()
			cancel()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
				t.Errorf("%v: err %v, want exit status %d; output:\n%s", args, err, tc.code, out)
			}
			parsed, _ := strconv.ParseFloat(v, 64)
			if want := fmt.Sprintf("-%s %g: ", tc.flag, parsed); !strings.Contains(string(out), want) || strings.Contains(string(out), "goroutine") {
				t.Errorf("%v: output does not name %q:\n%s", args, want, out)
			}
		}
	}
}

// TestListColumns: -list sizes its first two columns to the widest ID and
// paper reference, so every experiment's title starts where the header's
// TITLE does, counted in characters.
func TestListColumns(t *testing.T) {
	var b strings.Builder
	listExperiments(&b)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	exps := mptcpsim.Experiments()
	if len(lines) != 1+len(exps) {
		t.Fatalf("%d lines for %d experiments", len(lines), len(exps))
	}
	col := len([]rune(lines[0][:strings.Index(lines[0], "TITLE")]))
	for i, e := range exps {
		row := []rune(lines[1+i])
		if len(row) < col || string(row[col:]) != e.Title || row[col-1] != ' ' {
			t.Errorf("%s: title does not start at column %d:\n%s\n%s", e.ID, col, lines[0], lines[1+i])
		}
		if !strings.HasPrefix(lines[1+i], e.ID+" ") || !strings.Contains(lines[1+i], " "+e.PaperRef+" ") {
			t.Errorf("%s: row does not carry its ID and paper reference: %s", e.ID, lines[1+i])
		}
	}
}

// TestConformanceReportFailed: the conform command fails when any one
// case's verdict is not pass, and only then; a table without a verdict
// column fails too.
func TestConformanceReportFailed(t *testing.T) {
	r := &mptcpsim.Result{
		Columns: []mptcpsim.Column{{Name: "topology"}, {Name: "verdict"}},
		Rows: [][]mptcpsim.Cell{
			{mptcpsim.Cell{Text: "a"}, mptcpsim.Cell{Text: "pass"}},
			{mptcpsim.Cell{Text: "b"}, mptcpsim.Cell{Text: "pass"}},
			{mptcpsim.Cell{Text: "c"}, mptcpsim.Cell{Text: "pass"}},
		},
	}
	if conformFailed(r) {
		t.Error("all cases pass, report failed")
	}
	r.Rows[1][1] = mptcpsim.Cell{Text: "FAIL"}
	if !conformFailed(r) {
		t.Error("one case fails, report passed")
	}
	r.Rows[1][1] = mptcpsim.Cell{Text: "pass"}
	r.Columns[1].Name = "result"
	if !conformFailed(r) {
		t.Error("no verdict column, report passed")
	}
}
