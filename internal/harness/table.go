package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"mptcpsim/internal/stats"
)

// A table is an experiment declared as data: rows, each its label cells
// and the network it runs at each seed, and columns, each declared once
// with its name, unit, where its cells come from and the printf verb the
// text layout prints it with. Its one plan shape, one fold and one text
// layout serve every experiment.
type table struct {
	// preamble and footer are the Result's fixed context lines.
	preamble, footer []string
	// head is the text layout's header, newline included.
	head string
	cols []col
	rows []row
	// seeded runs every row at Config.Seeds seeds and summarizes a
	// reading over them; otherwise a row runs once, at BaseSeed.
	seeded bool
	// finish, when set, is the experiment's own code after the fold:
	// lines that depend on the configuration or on folded cells, a pivot,
	// series. runs holds each row's readings in seed order.
	finish func(cfg Config, r *Result, runs [][][]float64) error
}

// A row is one line of a table: its label cells, which fill the columns
// that have no source in order, and the network it runs. A closed-form row
// runs none.
type row struct {
	labels []Cell
	run    network
}

// A network lays out a row's job at one seed: the network and a reader
// that stores the run's readings into out.
type network func(cfg Config, seed int64, out *[]float64) Job

// A col is one column. Its cells come from at most one source; a column
// with none is a label.
type col struct {
	name, unit string
	// verb is the printf fragment the text layout prints the cell with,
	// separator included: its first verb gets the value (the text for %s,
	// the integer for %d), a second one the spread — the CI95 of a seed
	// summary, the standard deviation of a pooled sample.
	verb string
	// read is a reading of one run: a function of the readings its row's
	// reader stored. A NaN leaves that run out of the cell.
	read func(o []float64) float64
	// count sums the readings instead of summarizing them.
	count bool
	// pool builds the cell from every run of the row at once.
	pool func(runs [][]float64) Cell
	// calc is a closed form or arithmetic on the row's earlier cells; an
	// error fails the experiment.
	calc func(c []Cell) (float64, error)
}

// registerTable adds a table to the registry as an experiment.
func registerTable(id, ref, title string, t *table) {
	register(&Experiment{ID: id, PaperRef: ref, Title: title, Plan: t.plan, Text: t.text})
}

// at reads the k-th stored reading.
func at(k int) func(o []float64) float64 { return func(o []float64) float64 { return o[k] } }

// plan lays out one job per (row, seed), rows in order and seeds inner, and
// the fold over their readings. Repetition s runs at BaseSeed + s.
func (t *table) plan(cfg Config) Plan {
	seeds := 1
	if t.seeded {
		seeds = max(cfg.Seeds, 1)
	}
	raw := make([][]float64, len(t.rows)*seeds)
	jobs := make([]Job, 0, len(raw))
	for i, r := range t.rows {
		if r.run == nil {
			continue
		}
		for s := 0; s < seeds; s++ {
			jobs = append(jobs, r.run(cfg, cfg.BaseSeed+int64(s), &raw[i*seeds+s]))
		}
	}
	return Plan{Jobs: jobs, Fold: func() (*Result, error) { return t.fold(cfg, raw, seeds) }}
}

// fold turns the readings into one Result row per table row. A reading
// column's cell is a SummaryCell over the seeds of a seeded table and the
// one reading of an unseeded one; a count column's is the sum.
func (t *table) fold(cfg Config, raw [][]float64, seeds int) (*Result, error) {
	r := &Result{
		Preamble: slices.Clone(t.preamble), Footer: slices.Clone(t.footer),
		Columns: make([]Column, len(t.cols)), Rows: make([][]Cell, len(t.rows)),
	}
	for j, c := range t.cols {
		r.Columns[j] = Column{Name: c.name, Unit: c.unit}
	}
	runs := make([][][]float64, len(t.rows))
	for i, rw := range t.rows {
		runs[i] = raw[i*seeds : (i+1)*seeds]
		cells, labels := make([]Cell, len(t.cols)), rw.labels
		for j, c := range t.cols {
			switch {
			case c.read != nil:
				var s stats.Summary
				total := 0.0
				for _, o := range runs[i] {
					if v := c.read(o); !math.IsNaN(v) {
						s.Add(v)
						total += v
					}
				}
				if t.seeded && !c.count {
					cells[j] = SummaryCell(s)
				} else {
					cells[j] = NumCell(total)
				}
			case c.pool != nil:
				cells[j] = c.pool(runs[i])
			case c.calc != nil:
				v, err := c.calc(cells[:j])
				if err != nil {
					return nil, err
				}
				cells[j] = NumCell(v)
			default:
				cells[j], labels = labels[0], labels[1:]
			}
		}
		r.Rows[i] = cells
	}
	if t.finish != nil {
		if err := t.finish(cfg, r, runs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// text is the one text layout: the preamble, the header, one line per row
// printed with the columns' verbs, and the footer.
func (t *table) text(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	io.WriteString(w, t.head)
	var format strings.Builder
	for _, c := range t.cols {
		format.WriteString(c.verb)
	}
	format.WriteByte('\n')
	var args []any
	for _, cells := range r.Rows {
		args = args[:0]
		for j, c := range t.cols {
			args = c.args(args, cells[j])
		}
		fmt.Fprintf(w, format.String(), args...)
	}
	writeLines(w, r.Footer)
	return nil
}

// args appends what the column's verb prints of cell.
func (c col) args(dst []any, cell Cell) []any {
	n := 0
	for i := 0; i < len(c.verb); i++ {
		if c.verb[i] != '%' {
			continue
		}
		for i++; strings.IndexByte("+-# 0123456789.", c.verb[i]) >= 0; i++ {
		}
		switch {
		case c.verb[i] == '%':
			continue
		case n > 0 && c.pool != nil:
			dst = append(dst, cell.Stdev)
		case n > 0:
			dst = append(dst, cell.CI95)
		case c.verb[i] == 's':
			dst = append(dst, cell.Text)
		case c.verb[i] == 'd':
			dst = append(dst, cell.Int())
		default:
			dst = append(dst, cell.Value)
		}
		n++
	}
	return dst
}
