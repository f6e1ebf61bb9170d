package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format selects how a collected Result is rendered.
type Format string

const (
	// FormatText renders the paper's aligned tables (the default).
	FormatText Format = "text"
	// FormatJSON renders the Result as indented JSON.
	FormatJSON Format = "json"
	// FormatCSV renders the rows as CSV (plus a long-form series block for
	// trace experiments).
	FormatCSV Format = "csv"
)

// ParseFormat validates a format name from a flag or API call.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatCSV:
		return Format(s), nil
	case "":
		return FormatText, nil
	}
	return "", fmt.Errorf("harness: unknown format %q (have text, json, csv)", s)
}

// Render writes r to w in the given format.
func Render(r *Result, format Format, w io.Writer) error {
	switch format {
	case FormatText, "":
		return RenderText(r, w)
	case FormatJSON:
		return RenderJSON(r, w)
	case FormatCSV:
		return RenderCSV(r, w)
	}
	return fmt.Errorf("harness: unknown format %q", format)
}

// RenderText writes the experiment's table exactly as the pre-split
// harness printed it: each registry entry carries its layout (column
// widths, ±CI formats, section headers), reading only from the Result's
// cells. Results from outside the registry fall back to a generic aligned
// table.
func RenderText(r *Result, w io.Writer) error {
	if e := Get(r.ID); e != nil && e.Text != nil {
		return e.Text(r, w)
	}
	return genericText(r, w)
}

// writeLines writes each line of a preamble or footer.
func writeLines(w io.Writer, lines []string) {
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
}

// genericText renders preamble, an aligned name header, rows, and footer —
// the layout used for results with no registered layout.
func genericText(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	if len(r.Columns) > 0 {
		cells := make([][]string, len(r.Rows))
		width := make([]int, len(r.Columns))
		for i, c := range r.Columns {
			width[i] = len(c.Name)
		}
		for ri, row := range r.Rows {
			cells[ri] = make([]string, len(row))
			for ci, c := range row {
				s := c.Text
				if c.Kind == CellNumber {
					s = strconv.FormatFloat(c.Value, 'g', 6, 64)
					if c.N > 1 {
						s += "±" + strconv.FormatFloat(c.CI95, 'g', 3, 64)
					}
				}
				cells[ri][ci] = s
				if ci < len(width) && len(s) > width[ci] {
					width[ci] = len(s)
				}
			}
		}
		var b strings.Builder
		for i, c := range r.Columns {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c.Name)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		for _, row := range cells {
			b.Reset()
			for i, s := range row {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", width[i], s)
			}
			fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		}
	}
	writeLines(w, r.Footer)
	return nil
}

// RenderJSON writes r as indented JSON followed by a newline.
func RenderJSON(r *Result, w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// csvNum formats a float for CSV at full round-trip precision.
func csvNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// RenderCSV writes the Result's rows as one CSV table. The header names
// the columns; a column whose cells aggregate seed repetitions (N > 1)
// gets a companion "<name> ci95" column. Trace series, when present,
// follow after a blank line as a long-form (series,t_s,value) table.
func RenderCSV(r *Result, w io.Writer) error {
	cw := csv.NewWriter(w)
	hasCI := make([]bool, len(r.Columns))
	for _, row := range r.Rows {
		for ci, c := range row {
			if ci < len(hasCI) && c.N > 1 {
				hasCI[ci] = true
			}
		}
	}
	var header []string
	for i, c := range r.Columns {
		name := c.Name
		if c.Unit != "" {
			name += " (" + c.Unit + ")"
		}
		header = append(header, name)
		if hasCI[i] {
			header = append(header, c.Name+" ci95")
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		var rec []string
		for ci, c := range row {
			if c.Kind == CellText {
				rec = append(rec, c.Text)
			} else {
				rec = append(rec, csvNum(c.Value))
			}
			if ci < len(hasCI) && hasCI[ci] {
				rec = append(rec, csvNum(c.CI95))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if len(r.Series) > 0 {
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		sw := csv.NewWriter(w)
		if err := sw.Write([]string{"series", "t_s", "value"}); err != nil {
			return err
		}
		for _, s := range r.Series {
			for _, p := range s.Points {
				if err := sw.Write([]string{s.Name, csvNum(p.T), csvNum(p.V)}); err != nil {
					return err
				}
			}
		}
		sw.Flush()
		if err := sw.Error(); err != nil {
			return err
		}
	}
	return nil
}
