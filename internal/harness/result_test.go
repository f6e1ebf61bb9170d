package harness

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/stats"
)

// columnNames lists r's column names in order.
func columnNames(r *Result) []string {
	out := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		out[i] = c.Name
	}
	return out
}

// sampleResult builds a small Result exercising every cell kind: text,
// plain numbers, seed summaries, preamble/footer, and a series.
func sampleResult() *Result {
	var s stats.Summary
	s.Add(1.0)
	s.Add(2.0)
	return &Result{
		ID: "zz-sample", PaperRef: "test", Title: "sample",
		Preamble: []string{"context line"},
		Columns: []Column{
			{Name: "algo"}, {Name: "rate", Unit: "Mb/s"}, {Name: "flips"},
		},
		Rows: [][]Cell{
			{TextCell("olia"), SummaryCell(s), IntCell(3)},
			{TextCell("lia"), NumCell(2.5), IntCell(0)},
		},
		Footer: []string{"trailing note"},
		Series: []Series{{Name: "olia/w1", Points: []SeriesPoint{{T: 0, V: 1}, {T: 0.25, V: 2}}}},
	}
}

// TestJSONRoundTrip pins that the JSON renderer emits the full model and
// that unmarshalling reproduces the Result exactly.
func TestJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	var b strings.Builder
	if err := RenderJSON(r, &b); err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, b.String())
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", &got, r)
	}
}

// TestCSVRoundTrip pins the CSV shape: a parseable header naming every
// column (with units and ci95 companions), one record per row, and the
// long-form series block after a blank line.
func TestCSVRoundTrip(t *testing.T) {
	r := sampleResult()
	var b strings.Builder
	if err := RenderCSV(r, &b); err != nil {
		t.Fatal(err)
	}
	parts := strings.SplitN(b.String(), "\n\n", 2)
	if len(parts) != 2 {
		t.Fatalf("expected table + series blocks:\n%s", b.String())
	}
	recs, err := csv.NewReader(strings.NewReader(parts[0])).ReadAll()
	if err != nil {
		t.Fatalf("CSV table does not parse: %v\n%s", err, parts[0])
	}
	wantHeader := []string{"algo", "rate (Mb/s)", "rate ci95", "flips"}
	if !reflect.DeepEqual(recs[0], wantHeader) {
		t.Fatalf("header %v, want %v", recs[0], wantHeader)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want header + 2 rows", len(recs))
	}
	if recs[1][0] != "olia" || recs[1][1] != "1.5" || recs[2][3] != "0" {
		t.Fatalf("unexpected cell values: %v", recs[1:])
	}
	srecs, err := csv.NewReader(strings.NewReader(parts[1])).ReadAll()
	if err != nil {
		t.Fatalf("CSV series block does not parse: %v\n%s", err, parts[1])
	}
	if !reflect.DeepEqual(srecs[0], []string{"series", "t_s", "value"}) || len(srecs) != 3 {
		t.Fatalf("unexpected series block: %v", srecs)
	}
}

// TestRenderEveryFormatEveryExperiment runs the cheap analytic experiments
// through all three renderers; the simulation families share the same
// Result/render machinery, and TestGoldenText already locks their text.
func TestRenderEveryFormatEveryExperiment(t *testing.T) {
	cfg := DefaultConfig()
	for _, id := range []string{"fig4a", "fig4b", "fig5b", "fig17"} {
		r, err := Get(id).CollectResult(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.ID != id {
			t.Fatalf("CollectResult did not stamp ID: %q", r.ID)
		}
		for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
			var b strings.Builder
			if err := Render(r, f, &b); err != nil {
				t.Fatalf("%s/%s: %v", id, f, err)
			}
			if b.Len() == 0 {
				t.Fatalf("%s/%s produced no output", id, f)
			}
		}
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"": FormatText, "text": FormatText, "json": FormatJSON, "csv": FormatCSV,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("ParseFormat should reject unknown formats")
	}
}

// TestGenericText covers the fallback layout used by results that carry no
// bespoke table (unknown IDs).
func TestGenericText(t *testing.T) {
	r := sampleResult()
	var b strings.Builder
	if err := RenderText(r, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"context line", "algo", "rate", "olia", "trailing note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("generic text missing %q:\n%s", want, out)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	r := sampleResult()
	if got := columnNames(r); !reflect.DeepEqual(got, []string{"algo", "rate", "flips"}) {
		t.Fatalf("column names %v", got)
	}
	if v, ok := r.Value(1, "rate"); !ok || v != 2.5 {
		t.Fatalf("Value(1, rate) = %v, %v", v, ok)
	}
	if _, ok := r.Value(0, "algo"); ok {
		t.Fatal("Value on a text cell should report !ok")
	}
	if _, ok := r.Value(0, "nope"); ok {
		t.Fatal("Value on a missing column should report !ok")
	}
	if c := r.Cell(5, 0); c.Kind != "" {
		t.Fatalf("out-of-range Cell = %+v", c)
	}
}

func TestDiff(t *testing.T) {
	a := sampleResult()
	b := sampleResult()
	if d := Diff(a, b); !d.Empty() || d.Compared != 6 {
		t.Fatalf("identical results: %+v", d)
	}

	b.Rows[0][1].Value = 1.8 // 1.5 -> 1.8: +20%
	b.Rows[1][0] = TextCell("uncoupled")
	d := Diff(a, b)
	if len(d.Cells) != 2 {
		t.Fatalf("deltas %+v", d.Cells)
	}
	num := d.Cells[0]
	if num.Column != "rate" || num.Row != 0 || num.Delta < 0.2999 || num.Delta > 0.3001 {
		t.Fatalf("numeric delta %+v", num)
	}
	if num.RelPct < 19.99 || num.RelPct > 20.01 {
		t.Fatalf("rel pct %v, want 20", num.RelPct)
	}
	if d.MaxRelPct() != num.RelPct {
		t.Fatalf("MaxRelPct %v", d.MaxRelPct())
	}
	txt := d.Cells[1]
	if txt.TextA != "lia" || txt.TextB != "uncoupled" {
		t.Fatalf("text delta %+v", txt)
	}
	var buf strings.Builder
	if err := d.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 of 6 cells differ", "rate", "uncoupled"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("diff text missing %q:\n%s", want, buf.String())
		}
	}

	// Shape changes surface as notes, and overlapping cells still compare.
	c := sampleResult()
	c.Rows = c.Rows[:1]
	c.Columns = append(c.Columns, Column{Name: "extra"})
	d = Diff(a, c)
	if len(d.ShapeNotes) != 2 {
		t.Fatalf("shape notes %v", d.ShapeNotes)
	}
	if d.Compared != 3 {
		t.Fatalf("compared %d cells over the overlap, want 3", d.Compared)
	}

	// Preamble drift is reported.
	e := sampleResult()
	e.Preamble[0] = "different context"
	if d := Diff(a, e); len(d.ShapeNotes) != 1 || !strings.Contains(d.ShapeNotes[0], "preamble") {
		t.Fatalf("preamble drift notes: %v", d.ShapeNotes)
	}
}

// TestRunAllJSONParses pins the streaming JSON contract: -all output is one
// valid JSON array of Results in listing order, with the expected column
// sets.
func TestRunAllJSONParses(t *testing.T) {
	var b strings.Builder
	cfg := DefaultConfig()
	cfg.Workers = 2
	if err := RunAll(context.Background(), cfg, []string{"fig4a", "fig5b"}, FormatJSON, &b, nil); err != nil {
		t.Fatal(err)
	}
	var got []Result
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("RunAll JSON does not parse: %v\n%s", err, b.String())
	}
	if len(got) != 2 || got[0].ID != "fig4a" || got[1].ID != "fig5b" {
		t.Fatalf("unexpected results: %d entries", len(got))
	}
	wantCols := []string{"cx_over_ct", "single_blue", "single_red", "multi_blue", "multi_red"}
	if cols := columnNames(&got[0]); !reflect.DeepEqual(cols, wantCols) {
		t.Fatalf("fig4a columns %v, want %v", cols, wantCols)
	}
	if len(got[0].Rows) != 11 {
		t.Fatalf("fig4a rows %d, want the 11-point CX/CT sweep", len(got[0].Rows))
	}
}

// TestJSONKeepsZeroValues pins that a zero measurement marshals with an
// explicit "value" key — consumers must be able to distinguish 0 from
// absent.
func TestJSONKeepsZeroValues(t *testing.T) {
	r := &Result{
		ID:      "zz-zero",
		Columns: []Column{{Name: "flips"}},
		Rows:    [][]Cell{{IntCell(0)}},
	}
	var b strings.Builder
	if err := RenderJSON(r, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"value": 0`) {
		t.Fatalf("zero cell lost its value key:\n%s", b.String())
	}
}

// TestRunAllRejectsUnknownFormat pins that library callers get an error,
// not silently-text output, for a bogus Format value.
func TestRunAllRejectsUnknownFormat(t *testing.T) {
	var b strings.Builder
	err := RunAll(context.Background(), DefaultConfig(), []string{"fig4a"}, Format("jsonl"), &b, nil)
	if err == nil || !strings.Contains(err.Error(), "jsonl") {
		t.Fatalf("unknown format: err = %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("output written despite format error:\n%s", b.String())
	}
}

// registerFailProbe installs the zz-fail test experiment, whose fold fails.
func registerFailProbe() {
	if Get("zz-fail") != nil {
		return
	}
	registerTable("zz-fail", "test", "always fails", &table{
		cols: []col{{name: "x", calc: func([]Cell) (float64, error) { return 0, fmt.Errorf("synthetic failure") }}},
		rows: []row{{}},
	})
}

// TestRunAllJSONValidOnFailure pins that a failing experiment still leaves
// parseable JSON behind: the array closes around the completed prefix.
func TestRunAllJSONValidOnFailure(t *testing.T) {
	registerFailProbe()
	var b strings.Builder
	err := RunAll(context.Background(), DefaultConfig(), []string{"fig4a", "zz-fail"}, FormatJSON, &b, nil)
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("err = %v", err)
	}
	var got []Result
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output after failure is not valid JSON: %v\n%s", err, b.String())
	}
	if len(got) != 1 || got[0].ID != "fig4a" {
		t.Fatalf("expected the completed prefix, got %d results", len(got))
	}
}

// TestRunAllCSV pins the CSV stream shape: one parseable block per
// experiment, blank-line separated.
func TestRunAllCSV(t *testing.T) {
	var b strings.Builder
	if err := RunAll(context.Background(), DefaultConfig(), []string{"fig4a", "fig5b"}, FormatCSV, &b, nil); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimRight(b.String(), "\n"), "\n\n")
	if len(blocks) != 2 {
		t.Fatalf("got %d CSV blocks, want 2:\n%s", len(blocks), b.String())
	}
	for i, block := range blocks {
		if _, err := csv.NewReader(strings.NewReader(block)).ReadAll(); err != nil {
			t.Fatalf("block %d does not parse: %v\n%s", i, err, block)
		}
	}
}
