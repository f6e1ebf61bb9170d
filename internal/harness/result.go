package harness

import (
	"math"

	"mptcpsim/internal/stats"
)

// This file is the structured result model every experiment collects into.
// A Result is the experiment's data — metadata, typed columns, rows of
// cells, optional time series — with units and seed statistics (95% CIs,
// stdev, sample counts) preserved from stats.Summary. Rendering (text,
// JSON, CSV) consumes only this model, so anything downstream — dashboards,
// regression gates, cross-algorithm comparisons — can read the same values
// the tables print.

// CellKind discriminates what a Cell holds.
type CellKind string

const (
	// CellText is a label cell (algorithm name, variant, mode).
	CellText CellKind = "text"
	// CellNumber is a numeric cell, optionally with seed statistics.
	CellNumber CellKind = "number"
)

// Cell is one value in a Result row.
type Cell struct {
	Kind CellKind `json:"kind"`
	// Text is the label of a CellText cell.
	Text string `json:"text,omitempty"`
	// Value is the numeric value of a CellNumber cell — the seed mean when
	// the cell aggregates repetitions. Never omitted from JSON: a zero is
	// a measurement, not an absence.
	Value float64 `json:"value"`
	// CI95 is the half-width of the 95% confidence interval over seed
	// repetitions (0 when N < 2).
	CI95 float64 `json:"ci95,omitempty"`
	// Stdev is the sample standard deviation over the aggregated
	// observations (0 when N < 2).
	Stdev float64 `json:"stdev,omitempty"`
	// N is the number of observations aggregated into Value (0 for plain
	// numbers).
	N int `json:"n,omitempty"`
}

// TextCell builds a label cell.
func TextCell(s string) Cell { return Cell{Kind: CellText, Text: s} }

// NumCell builds a plain numeric cell.
func NumCell(v float64) Cell { return Cell{Kind: CellNumber, Value: v} }

// IntCell builds a numeric cell holding an exact integer (counts, flips).
func IntCell(n int) Cell { return Cell{Kind: CellNumber, Value: float64(n)} }

// SummaryCell builds a numeric cell from a seed-statistics summary,
// preserving the mean, 95% CI, standard deviation and sample count.
func SummaryCell(s stats.Summary) Cell {
	return Cell{Kind: CellNumber, Value: s.Mean(), CI95: s.CI95(), Stdev: s.Stdev(), N: s.N()}
}

// Int reads an exact-integer cell back.
func (c Cell) Int() int { return int(math.Round(c.Value)) }

// Column describes one Result column.
type Column struct {
	Name string `json:"name"`
	// Unit is the value's unit where one applies ("Mb/s", "norm", "ms",
	// "%", "pkts"); empty for labels and dimensionless counts.
	Unit string `json:"unit,omitempty"`
}

// SeriesPoint is one sample of a recorded time series.
type SeriesPoint struct {
	T float64 `json:"t"` // seconds
	V float64 `json:"v"`
}

// Series is a named time series attached to a Result (the window traces of
// Figs. 7 and 8).
type Series struct {
	Name   string        `json:"name"`
	Points []SeriesPoint `json:"points"`
}

// Result is the structured outcome of one experiment run.
type Result struct {
	// ID, PaperRef and Title identify the experiment; stamped from the
	// registry entry when the experiment is collected.
	ID       string `json:"id"`
	PaperRef string `json:"paper_ref,omitempty"`
	Title    string `json:"title,omitempty"`
	// Preamble holds rendered context lines printed before the table
	// (rig description, scale parameters).
	Preamble []string `json:"preamble,omitempty"`
	// Columns name and unit the cells of every row.
	Columns []Column `json:"columns"`
	// Rows hold the table body; each row has one Cell per Column.
	Rows [][]Cell `json:"rows"`
	// Footer holds rendered commentary lines printed after the table
	// (expected shapes, paper reference numbers).
	Footer []string `json:"footer,omitempty"`
	// Series holds sampled time series for trace experiments.
	Series []Series `json:"series,omitempty"`
}

// Cell returns the cell at (row, col), or a zero Cell when out of range.
func (r *Result) Cell(row, col int) Cell {
	if row < 0 || row >= len(r.Rows) || col < 0 || col >= len(r.Rows[row]) {
		return Cell{}
	}
	return r.Rows[row][col]
}

// Column returns the index of the named column, or -1.
func (r *Result) Column(name string) int {
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value returns the numeric value at (row, named column); ok is false when
// the column is missing, the row is out of range, or the cell is not
// numeric.
func (r *Result) Value(row int, column string) (v float64, ok bool) {
	ci := r.Column(column)
	if ci < 0 || row < 0 || row >= len(r.Rows) || ci >= len(r.Rows[row]) {
		return 0, false
	}
	c := r.Rows[row][ci]
	if c.Kind != CellNumber {
		return 0, false
	}
	return c.Value, true
}
