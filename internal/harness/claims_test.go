package harness

import (
	"fmt"
	"testing"
)

// goldenClaims are the paper's qualitative claims about an experiment,
// checked on the Result TestGoldenText collects at goldenConfig, so they
// cost no simulation of their own. A golden pins the bytes; a claim says
// what the bytes must still mean after an intended behaviour change. The
// values quoted are those of the committed goldens.
var goldenClaims = map[string]func(t *testing.T, r *Result){
	// §VI-B1: MPTCP exploits the fat tree's path diversity, TCP cannot
	// (77.7/86.3 % LIA and 78.5/84.0 % OLIA at 2/3 subflows vs 55.3 %).
	"fig13a": func(t *testing.T, r *Result) {
		for i := range r.Rows {
			n := cellAt(t, r, i, "subflows").Int()
			tcp := cellAt(t, r, i, "tcp").Value
			for _, algo := range []string{"lia", "olia"} {
				claimAbove(t, fmt.Sprintf("%s at %d subflows", algo, n), cellAt(t, r, i, algo).Value, "tcp", tcp)
			}
		}
	},
	// §VI-B1: the median flow does better under either coupling than
	// under TCP (p50 87.1 and 89.3 vs 61.7 % of optimal).
	"fig13b": func(t *testing.T, r *Result) {
		tcp := cellAt(t, r, rowOf(t, r, "algo", "tcp"), "p50").Value
		for _, algo := range []string{"lia", "olia"} {
			claimAbove(t, algo+" p50", cellAt(t, r, rowOf(t, r, "algo", algo), "p50").Value, "tcp p50", tcp)
		}
	},
	// §VI-B2, Table III: MPTCP uses the core more than TCP (10.3 and 10.2
	// vs 6.2 %), and TCP's short flows finish fastest (70 vs 118 and
	// 123 ms), as in the paper (73 vs 98 and 90 ms). The paper's "OLIA
	// ≈10 % faster than LIA" is not reproduced at this scale (OLIA 123 ms,
	// LIA 118 ms), so it is not asserted.
	"table3": func(t *testing.T, r *Result) {
		tcp := rowOf(t, r, "algorithm", "TCP")
		for _, name := range []string{"MPTCP-lia", "MPTCP-olia"} {
			mp := rowOf(t, r, "algorithm", name)
			claimAbove(t, name+" core util", cellAt(t, r, mp, "core_util").Value, "TCP's", cellAt(t, r, tcp, "core_util").Value)
			claimAbove(t, name+" mean finish", cellAt(t, r, mp, "finish").Value, "TCP's", cellAt(t, r, tcp, "finish").Value)
		}
	},
}

// claimAbove fails unless got exceeds the reference value.
func claimAbove(t *testing.T, what string, got float64, ref string, refValue float64) {
	t.Helper()
	if !(got > refValue) {
		t.Errorf("claim broken: %s is %.1f, not above %s %.1f", what, got, ref, refValue)
	}
}

// colOf returns the index of the named column.
func colOf(t *testing.T, r *Result, name string) int {
	t.Helper()
	for j, c := range r.Columns {
		if c.Name == name {
			return j
		}
	}
	t.Fatalf("no column %q", name)
	return -1
}

// rowOf returns the first row whose label column col reads label.
func rowOf(t *testing.T, r *Result, col, label string) int {
	t.Helper()
	j := colOf(t, r, col)
	for i, row := range r.Rows {
		if row[j].Text == label {
			return i
		}
	}
	t.Fatalf("no row with %s %q", col, label)
	return -1
}

// cellAt returns row i's cell in the named column.
func cellAt(t *testing.T, r *Result, i int, col string) Cell {
	t.Helper()
	return r.Rows[i][colOf(t, r, col)]
}
