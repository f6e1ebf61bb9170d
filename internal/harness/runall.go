package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// RunAll regenerates the experiments with the given ids — the full registry
// in paper order when ids is empty — writing each experiment's rendered
// result to w in listing order and reporting to progress (nil drops the
// events). Text output prints each experiment's banner and table; JSON
// output is one array of Result objects; CSV output is one
// blank-line-separated block per experiment.
//
// The jobs of all the experiments run in one stream on one worker pool (see
// collect), so at most cfg.Workers simulations execute at any moment.
// Output is progressive: experiment i is rendered straight to w as soon as
// experiments 0..i have finished, while later experiments' jobs are still
// running, and the bytes are identical to a sequential run.
//
// On failure every experiment still runs to completion, the output up to
// the failing experiment is written (in text, followed by that experiment's
// banner), and its error is returned. The first error from w stops all
// further rendering and is what RunAll returns, whatever else failed.
//
// Cancelling ctx stops every experiment's simulation jobs at the next job
// boundary; the experiments that had already completed in listing order are
// written, and RunAll returns an error wrapping ctx.Err() that names the
// first unfinished one.
func RunAll(ctx context.Context, cfg Config, ids []string, format Format, w io.Writer, progress func(Event)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	format, err := ParseFormat(string(format))
	if err != nil {
		return err
	}
	var exps []*Experiment
	if len(ids) == 0 {
		exps = Experiments()
	} else {
		for _, id := range ids {
			e := Get(id)
			if e == nil {
				return fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
			}
			exps = append(exps, e)
		}
	}
	// The text layouts do not check their writes; out keeps the first error
	// of w and writes nothing after it.
	out := &stickyWriter{w: w}
	if format == FormatJSON {
		io.WriteString(out, "[\n")
	}
	written := 0
	failed, err := collect(ctx, cfg, exps, progress, func(r *Result) error {
		var err error
		switch format {
		case FormatJSON:
			var b []byte
			if b, err = json.MarshalIndent(r, "  ", "  "); err != nil {
				return fmt.Errorf("harness: %s: %w", r.ID, err)
			}
			if written > 0 {
				io.WriteString(out, ",\n")
			}
			io.WriteString(out, "  ")
			out.Write(b)
		case FormatCSV:
			if written > 0 {
				io.WriteString(out, "\n")
			}
			err = RenderCSV(r, out)
		case FormatText:
			fmt.Fprintf(out, "\n===== %s =====\n", r.ID)
			err = RenderText(r, out)
		}
		written++
		if out.err != nil {
			return out.err
		}
		return err
	})
	if failed >= 0 && format == FormatText {
		// The classic stream: a failing experiment still contributes its
		// banner before the error surfaces.
		fmt.Fprintf(out, "\n===== %s =====\n", exps[failed].ID)
	}
	if out.err != nil {
		err = out.err
	}
	if format == FormatJSON {
		// Close the array even on failure — straight on w, best effort after
		// a write error — so the flushed prefix remains valid JSON (an array
		// of the experiments that completed).
		if _, cerr := io.WriteString(w, "\n]\n"); err == nil {
			err = cerr
		}
	}
	return err
}

// stickyWriter passes writes through to w until one fails, then refuses the
// rest with that first error.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	s.err = err
	return n, err
}
