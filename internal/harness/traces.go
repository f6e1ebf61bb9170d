package harness

import (
	"fmt"
	"io"
	"math"

	"mptcpsim/internal/core"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// tracePeriod is the sampling period of the two-link rig's window traces.
const tracePeriod = 250 * sim.Millisecond

// runTrace records one algorithm's window evolution on the two-link rig,
// read as the means after the warm-up of w1, w2 and OLIA's α1 and α2 (NaN
// without them), the flip count, and then the samples as (t, w1, w2)
// triples.
func runTrace(algo string, nTCP1, nTCP2 int) network {
	return func(cfg Config, _ int64, out *[]float64) Job {
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
				o := append(make([]float64, 0, 5+3*len(tr.T)),
					meanAfter(tr.T, tr.V[0], cfg.Warmup), meanAfter(tr.T, tr.V[1], cfg.Warmup),
					math.NaN(), math.NaN(), float64(flips(tr.V[0], tr.V[1])))
				if len(tr.V) > 2 {
					o[2], o[3] = meanAfter(tr.T, tr.V[2], cfg.Warmup), meanAfter(tr.T, tr.V[3], cfg.Warmup)
				}
				for i, t := range tr.T {
					o = append(o, t.Sec(), tr.V[0][i], tr.V[1][i])
				}
				*out = o
			},
		}
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

// traceSeries attaches each run's sampled windows as the series
// "<algo>/w1" and "<algo>/w2". Algorithms without an α probe (LIA) carry
// empty text cells in the α columns.
func traceSeries(_ Config, r *Result, runs [][][]float64) error {
	for i, c := range r.Rows {
		o := runs[i][0]
		if math.IsNaN(o[2]) {
			c[3], c[4] = TextCell(""), TextCell("")
		}
		samples := o[5:]
		w1, w2 := make([]SeriesPoint, len(samples)/3), make([]SeriesPoint, len(samples)/3)
		for k := range w1 {
			t := samples[3*k]
			w1[k], w2[k] = SeriesPoint{T: t, V: samples[3*k+1]}, SeriesPoint{T: t, V: samples[3*k+2]}
		}
		r.Series = append(r.Series, Series{Name: c[0].Text + "/w1", Points: w1}, Series{Name: c[0].Text + "/w2", Points: w2})
	}
	return nil
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
// with nTCP1 and nTCP2 regular TCP flows, one row of means per algorithm
// plus the full sampled window series for the figure shape.
func traceExperiment(nTCP1, nTCP2 int) func(Config) Plan {
	t := &table{
		cols: []col{
			{name: "algo"},
			{name: "mean_w1", unit: "pkts", read: at(0)}, {name: "mean_w2", unit: "pkts", read: at(1)},
			{name: "mean_alpha1", read: at(2)}, {name: "mean_alpha2", read: at(3)},
			{name: "flips", read: at(4)},
		},
		rows: []row{
			{labels: []Cell{TextCell("olia")}, run: runTrace("olia", nTCP1, nTCP2)},
			{labels: []Cell{TextCell("lia")}, run: runTrace("lia", nTCP1, nTCP2)},
		},
		finish: traceSeries,
	}
	return t.plan
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
