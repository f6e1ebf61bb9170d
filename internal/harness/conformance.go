package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// Differential conformance: the packet-level simulator against the paper's
// fluid model (§V). Each row is one network, run packet by packet at every
// seed and compiled by scenario.Fluid to the fluid model solved to
// equilibrium, and the two are compared on the multipath flow's
// steady-state per-path goodput shares. Agreement within shareTolerance on
// topologies the paper never exercised (3 and 4 paths, heterogeneous
// capacities and competition) is the cross-model evidence that the
// simulator and the fluid model describe the same system.

// shareTolerance is the documented agreement bound: every per-path
// goodput share of the multipath flow must match the fluid-model
// equilibrium share within this absolute tolerance (shares live in [0,1]).
// The slack covers what genuinely separates the two descriptions: the
// fluid model's smooth loss curve versus RED's sampled EWMA drops, finite
// averaging windows, and the 1-MSS-per-RTT probing floor of a window-based
// implementation.
const shareTolerance = 0.10

// conformanceTopos are the shapes compared for every algorithm: path i is
// one RED link of caps[i] Mb/s shared with bg[i] TCP flows. Per-path fair
// shares are kept pairwise distinct on purpose: with ties, Theorem 1 makes
// the coupled controllers' per-path split non-unique (any distribution
// over the tied best paths is an equilibrium), and comparing one selected
// equilibrium against another is ill-posed.
var conformanceTopos = []struct {
	name string
	caps []float64
	bg   []int
}{
	{"tier3", []float64{2, 4, 8}, []int{3, 2, 1}},
	{"asym3", []float64{2, 4, 8}, []int{2, 2, 2}},
	{"steep4", []float64{1.5, 3, 5, 12}, []int{1, 2, 2, 2}},
}

// conformanceAlgos are the coupled controllers with fluid dynamics.
var conformanceAlgos = []string{"olia", "lia", "uncoupled"}

// conformancePaths is the most paths a topology has: the number of share
// columns on each side. A row's shares past its own paths are 0.
const conformancePaths = 4

// The conformance table's column layout: the labels, the packet side
// (pooled), then the model side and the verdict (filled by finish).
const (
	confPaths      = 2
	confSimShare   = 4
	confModelShare = confSimShare + conformancePaths + 1
	confDiff       = confModelShare + conformancePaths
	confConverged  = confDiff + 1
	confVerdict    = confConverged + 1
)

// conformanceSpec is one row's network at one seed.
func conformanceSpec(cfg Config, topo int, algo string, seed int64) *scenario.Spec {
	tp := conformanceTopos[topo]
	return scenario.ConformanceSpec(tp.name, tp.caps, tp.bg, algo, seed, cfg.Warmup.Sec(), cfg.Duration.Sec())
}

// seedMean is the mean over the seeds of reading k, summed in seed order
// as reading/seeds terms; a run without reading k adds nothing.
func seedMean(runs [][]float64, k int) float64 {
	m := 0.0
	for _, o := range runs {
		if k < len(o) {
			m += o[k] / float64(len(runs))
		}
	}
	return m
}

// conformance is the fluid oracle: one row per topology × algorithm, each
// run at every seed and read as the multipath flow's goodput (reading 0)
// and per-path Mb/s (1 on). The packet side is the seed-mean per-path rate
// over the seed-mean total; finish solves the first seed's network to its
// fluid equilibrium and gives the verdict.
var conformance = func() *table {
	t := &table{
		cols: []col{
			{name: "topology"}, {name: "algo"}, {name: "paths"},
			{name: "sim_mbps", unit: "Mb/s", pool: func(runs [][]float64) Cell { return NumCell(seedMean(runs, 0)) }},
		},
		seeded: true,
		finish: finishConformance,
	}
	for k := 1; k <= conformancePaths; k++ {
		t.cols = append(t.cols, col{name: fmt.Sprintf("sim_share_%d", k), pool: func(runs [][]float64) Cell {
			share := 0.0
			if total := seedMean(runs, 0); total > 0 {
				share = seedMean(runs, k) / total
			}
			return NumCell(share)
		}})
	}
	for i, tp := range conformanceTopos {
		for _, algo := range conformanceAlgos {
			t.rows = append(t.rows, row{
				labels: []Cell{TextCell(tp.name), TextCell(algo), IntCell(len(tp.caps))},
				run: func(cfg Config, seed int64, out *[]float64) Job {
					return Job{Spec: conformanceSpec(cfg, i, algo, seed), Read: func(rep *scenario.RunReport) {
						mp := rep.Flows[0]
						*out = append([]float64{mp.GoodputMbps}, mp.PathMbps...)
					}}
				},
			})
		}
	}
	return t
}()

// finishConformance appends each row's model side — the fluid
// equilibrium's Mb/s and per-path shares, the largest per-path share
// deviation, whether the solve converged — and its verdict: pass when the
// solve converged and no share is more than shareTolerance off.
func finishConformance(cfg Config, r *Result, _ [][][]float64) error {
	r.Preamble = []string{
		fmt.Sprintf("conformance: packet-level vs fluid equilibrium, per-path goodput shares (tolerance ±%.2f)", shareTolerance),
		fmt.Sprintf("%d seeds from %d, %g s warm-up, %g s windows", max(cfg.Seeds, 1), cfg.BaseSeed, cfg.Warmup.Sec(), cfg.Duration.Sec()),
	}
	r.Columns = append(r.Columns, Column{Name: "model_mbps", Unit: "Mb/s"})
	for k := 1; k <= conformancePaths; k++ {
		r.Columns = append(r.Columns, Column{Name: fmt.Sprintf("model_share_%d", k)})
	}
	r.Columns = append(r.Columns, Column{Name: "max_diff"}, Column{Name: "converged"}, Column{Name: "verdict"})
	for i, cells := range r.Rows {
		topo, algo := i/len(conformanceAlgos), cells[1].Text
		m, err := scenario.Fluid(conformanceSpec(cfg, topo, algo, cfg.BaseSeed))
		if err != nil {
			return fmt.Errorf("conformance %s/%s: %w", cells[0].Text, algo, err)
		}
		x, ok := m.Equilibrium()
		shares := m.UserShares(x, 0)
		cells = append(cells, NumCell(stats.PktsPerSecMbps(m.UserRate(x, 0))))
		diff := 0.0
		for k := 0; k < conformancePaths; k++ {
			share := 0.0
			if k < len(shares) {
				share = shares[k]
			}
			cells = append(cells, NumCell(share))
			if d := math.Abs(cells[confSimShare+k].Value - share); d > diff {
				diff = d
			}
		}
		converged, verdict := 0, "FAIL"
		if ok {
			converged = 1
		}
		if ok && diff <= shareTolerance {
			verdict = "pass"
		}
		r.Rows[i] = append(cells, NumCell(diff), IntCell(converged), TextCell(verdict))
	}
	return nil
}

// textConformance prints one line per case: the largest share deviation,
// the verdict, and the packet and model share vectors over the case's own
// paths.
func textConformance(r *Result, w io.Writer) error {
	writeLines(w, r.Preamble)
	fmt.Fprintf(w, "  %-8s %-10s %-7s %-9s %s\n", "topology", "algo", "Δshare", "verdict", "sim vs model shares")
	shares := func(cells []Cell) string {
		s := make([]string, len(cells))
		for i, c := range cells {
			s[i] = fmt.Sprintf("%.2f", c.Value)
		}
		return "[" + strings.Join(s, " ") + "]"
	}
	for _, c := range r.Rows {
		n := c[confPaths].Int()
		fmt.Fprintf(w, "  %-8s %-10s %6.3f  %-9s %s vs %s\n", c[0].Text, c[1].Text, c[confDiff].Value, c[confVerdict].Text,
			shares(c[confSimShare:confSimShare+n]), shares(c[confModelShare:confModelShare+n]))
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "conformance",
		PaperRef: "§V, Theorem 1",
		Title:    "Fluid oracle: packet-level per-path goodput shares of OLIA, LIA and uncoupled on 3- and 4-path networks match the fluid equilibrium",
		Plan:     conformance.plan,
		Text:     textConformance,
	})
}
