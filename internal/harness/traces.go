package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/core"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// tracePeriod is the sampling period of the two-link rig's window traces.
const tracePeriod = 250 * sim.Millisecond

// traceResult is one recorded two-path run of Figs. 7/8: window (and OLIA
// α) means plus the sampled window series for the figure shape.
type traceResult struct {
	algo       string
	w1, w2     float64
	a1, a2     float64
	hasAlpha   bool
	flipsCount int
	t          []sim.Time
	s1, s2     []float64
}

// runTrace records one algorithm's window evolution on the two-link rig.
func runTrace(cfg Config, algo string, nTCP1, nTCP2 int, res *traceResult) Job {
	var tr *scenario.Trace
	return Job{
		Build: setUp(twoLinkSpec(cfg, algo, nTCP1, nTCP2), func(n *scenario.Net) {
			conn := n.Group("mp")[0].Conn
			probes := windowProbes(conn)
			if o, ok := conn.Controller().(*core.OLIA); ok {
				probes = append(probes,
					scenario.Probe{Name: "a1", Fn: func() float64 { return o.Alpha(0) }},
					scenario.Probe{Name: "a2", Fn: func() float64 { return o.Alpha(1) }},
				)
			}
			tr = n.Trace(tracePeriod, probes...)
		}),
		Read: func(*scenario.Net, *scenario.RunReport) {
			*res = traceResult{
				algo:       algo,
				w1:         meanAfter(tr.T, tr.V[0], cfg.Warmup),
				w2:         meanAfter(tr.T, tr.V[1], cfg.Warmup),
				flipsCount: flips(tr.V[0], tr.V[1]),
				t:          tr.T,
				s1:         tr.V[0],
				s2:         tr.V[1],
			}
			if len(tr.V) > 2 {
				res.hasAlpha = true
				res.a1 = meanAfter(tr.T, tr.V[2], cfg.Warmup)
				res.a2 = meanAfter(tr.T, tr.V[3], cfg.Warmup)
			}
		},
	}
}

// meanAfter averages the samples vs taken (at times ts) at or after t0,
// excluding the warm-up; 0 when there are none.
func meanAfter(ts []sim.Time, vs []float64, t0 sim.Time) float64 {
	var sum float64
	var n int
	for i, t := range ts {
		if t >= t0 {
			sum += vs[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// tracePoints pairs a sampled column with its times as Result samples.
func tracePoints(ts []sim.Time, vs []float64) []SeriesPoint {
	out := make([]SeriesPoint, len(ts))
	for i, t := range ts {
		out[i] = SeriesPoint{T: t.Sec(), V: vs[i]}
	}
	return out
}

// resultTrace structures the recorded runs: one row of means per
// algorithm, plus the full sampled window series (named "<algo>/w1",
// "<algo>/w2") for the figure shape. Algorithms without an α probe (LIA)
// carry empty text cells in the α columns.
func resultTrace(results []traceResult) (*Result, error) {
	r := &Result{Columns: []Column{
		{Name: "algo"},
		{Name: "mean_w1", Unit: "pkts"}, {Name: "mean_w2", Unit: "pkts"},
		{Name: "mean_alpha1"}, {Name: "mean_alpha2"},
		{Name: "flips"},
	}}
	for _, t := range results {
		a1, a2 := TextCell(""), TextCell("")
		if t.hasAlpha {
			a1, a2 = NumCell(t.a1), NumCell(t.a2)
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(t.algo), NumCell(t.w1), NumCell(t.w2), a1, a2, IntCell(t.flipsCount),
		})
		r.Series = append(r.Series,
			Series{Name: t.algo + "/w1", Points: tracePoints(t.t, t.s1)},
			Series{Name: t.algo + "/w2", Points: tracePoints(t.t, t.s2)},
		)
	}
	return r, nil
}

// seriesByName finds an attached series, or nil.
func (r *Result) seriesByName(name string) []SeriesPoint {
	for _, s := range r.Series {
		if s.Name == name {
			return s.Points
		}
	}
	return nil
}

// textTrace is the classic Figs. 7/8 layout: per algorithm a summary line
// (means, flappiness) and a decimated time series (about 12 columns).
func textTrace(r *Result, w io.Writer) error {
	for _, c := range r.Rows {
		algo := c[0].Text
		fmt.Fprintf(w, "%s: mean w1 = %.1f pkts, mean w2 = %.1f pkts", algo, c[1].Value, c[2].Value)
		if c[3].Kind == CellNumber {
			fmt.Fprintf(w, ", mean α1 = %+.3f, mean α2 = %+.3f", c[3].Value, c[4].Value)
		}
		fmt.Fprintf(w, ", flips(w1≶w2) = %d\n", c[5].Int())

		s1 := r.seriesByName(algo + "/w1")
		s2 := r.seriesByName(algo + "/w2")
		step := len(s1) / 12
		if step == 0 {
			step = 1
		}
		fmt.Fprintf(w, "  t(s):")
		for i := 0; i < len(s1); i += step {
			fmt.Fprintf(w, "%7.0f", s1[i].T)
		}
		fmt.Fprintf(w, "\n  w1:  ")
		for i := 0; i < len(s1); i += step {
			fmt.Fprintf(w, "%7.1f", s1[i].V)
		}
		fmt.Fprintf(w, "\n  w2:  ")
		for i := 0; i < len(s2); i += step {
			fmt.Fprintf(w, "%7.1f", s2[i].V)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// traceExperiment reproduces Figs. 7 and 8: the evolution of the two
// subflow windows (and OLIA's α) for a two-path user whose links are shared
// with nTCP1 and nTCP2 regular TCP flows.
func traceExperiment(nTCP1, nTCP2 int) func(Config) Plan {
	return func(cfg Config) Plan {
		return perPoint([]string{"olia", "lia"}, func(algo string, res *traceResult) Job {
			return runTrace(cfg, algo, nTCP1, nTCP2, res)
		}, resultTrace)
	}
}

// flips counts dominance changes between two sampled series — the
// flappiness indicator (a flappy controller alternates which path holds the
// larger window).
func flips(a, b []float64) int {
	var count int
	prev := 0
	for i := range a {
		cur := 0
		switch {
		case a[i] > 1.5*b[i]:
			cur = 1
		case b[i] > 1.5*a[i]:
			cur = -1
		}
		if cur != 0 && prev != 0 && cur != prev {
			count++
		}
		if cur != 0 {
			prev = cur
		}
	}
	return count
}

func init() {
	register(&Experiment{
		ID:       "fig7",
		PaperRef: "Figure 7",
		Title:    "Symmetric two-path user (5 TCP flows on each link): OLIA uses both paths, no flappiness; α stays near zero",
		Plan:     traceExperiment(5, 5),
		Text:     textTrace,
	})
	register(&Experiment{
		ID:       "fig8",
		PaperRef: "Figure 8",
		Title:    "Asymmetric two-path user (5 vs 10 TCP flows): OLIA abandons the congested path (w2 ≈ 1); LIA keeps transmitting on it",
		Plan:     traceExperiment(5, 10),
		Text:     textTrace,
	})
}
