package scenario

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/fixedpoint"
)

// groupMbps sums the measured-window goodput of every replica of one flow
// group (replicas are named "<group>-<i>").
func groupMbps(rep *RunReport, group string) float64 {
	var total float64
	for _, f := range rep.Flows {
		if strings.HasPrefix(f.Name, group+"-") {
			total += f.GoodputMbps
		}
	}
	return total
}

// TestPaperScenarioClaims checks, on the compiled paper topologies, the
// qualitative results the paper draws from them, and Scenario A's LIA run
// against its Appendix-A fixed point within NormTolerance: each row
// asserts less < more between two measurements of 55 s windows after 5 s
// of warm-up (20 s from t=0 for the two-link smoke rows).
func TestPaperScenarioClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	run := func(sp *Spec) *RunReport {
		t.Helper()
		rep, err := Run(context.Background(), sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%s: invariant violations: %v", sp.Name, rep.Violations)
		}
		return rep
	}
	const warm, dur = 5, 55

	// Scenario A at N1 = N2 = 10, C1 = C2 = 1 Mb/s: per-user means.
	aLIA := run(PaperScenarioA(10, 10, 1, 1, "lia", 1, warm, dur))
	aOLIA := run(PaperScenarioA(10, 10, 1, 1, "olia", 1, warm, dur))
	t1LIA, t2LIA := groupMbps(aLIA, "type1")/10, groupMbps(aLIA, "type2")/10
	t2OLIA := groupMbps(aOLIA, "type2") / 10
	p2LIA, p2OLIA := aLIA.Queues[1].Window.LossProb(), aOLIA.Queues[1].Window.LossProb()
	aFixed, err := fixedpoint.ScenarioALIA(10, 10, 1, 1, fixedpoint.PaperRTT)
	if err != nil {
		t.Fatal(err)
	}

	// Scenario B (Table I/II setting): aggregate over all 30 users.
	bAgg := func(algo string, redMultipath bool) float64 {
		rep := run(PaperScenarioB(15, 27, 36, algo, redMultipath, 3, warm, dur))
		return groupMbps(rep, "blue") + groupMbps(rep, "red")
	}
	bLIA, bLIAUp := bAgg("lia", false), bAgg("lia", true)
	bOLIA, bOLIAUp := bAgg("olia", false), bAgg("olia", true)

	// Scenario C at N1 = 20, N2 = 10, C1/C2 = 2: single-path per-user mean.
	cSingle := func(algo string) float64 {
		return groupMbps(run(PaperScenarioC(20, 10, 2, 1, algo, 2, warm, dur)), "single") / 10
	}
	cLIA, cOLIA := cSingle("lia"), cSingle("olia")

	tl := run(PaperTwoLink(10, 5, 5, "olia", 4, 0, 20))
	tlIdlest := tl.Flows[0].GoodputMbps
	for _, f := range tl.Flows {
		tlIdlest = min(tlIdlest, f.GoodputMbps)
	}

	claims := []struct {
		name       string
		less, more float64
	}{
		// Type1 users are capped by the server link at C1 = 1 Mb/s each.
		{"A LIA type1 not starved", 0.6, t1LIA},
		{"A LIA type1 within server link", t1LIA, 1.1},
		// The paper reports ≈30% degradation for type2 at N1 = N2.
		{"A LIA penalizes type2", t2LIA, 0.9},
		{"A LIA congests shared AP", 0, aLIA.Queues[1].Total.LossProb()},
		{"A OLIA relieves type2", t2LIA, t2OLIA},
		{"A OLIA lowers shared-AP loss", p2OLIA, p2LIA},
		// N1 = N2, C1 = C2 is where LIA visibly misses the optimum, so a
		// miscoupled controller cannot meet its fixed point on symmetry alone.
		{"A LIA type1 at most 0.15 under fixed point", aFixed.Type1Norm - NormTolerance, t1LIA},
		{"A LIA type1 at most 0.15 over fixed point", t1LIA, aFixed.Type1Norm + NormTolerance},
		{"A LIA type2 at most 0.15 under fixed point", aFixed.Type2Norm - NormTolerance, t2LIA},
		{"A LIA type2 at most 0.15 over fixed point", t2LIA, aFixed.Type2Norm + NormTolerance},
		// Cut-set bound CX+CT = 63 Mb/s; Red single-path sits close to it.
		{"B LIA within cut-set bound", bLIA, 63.5},
		{"B LIA near cut-set bound", 50, bLIA},
		// Table I: upgrading Red users to LIA drops the aggregate by ≈13%.
		{"B LIA upgrade hurts", bLIAUp, bLIA - 2},
		{"B OLIA upgrade nearly harmless", bOLIA - bOLIAUp, bLIA - bLIAUp},
		// C1/C2 = 2: an optimal algorithm keeps multipath users off AP2; the
		// analytic gap at N1/N2 = 2 is ≈0.66 vs ≈0.8.
		{"C OLIA fairer to single-path by 10 percent", cLIA * 1.10, cOLIA},
		{"two-link smoke", 0, tlIdlest},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			if !(c.less < c.more) {
				t.Errorf("want %.4f < %.4f", c.less, c.more)
			}
		})
	}
}

// TestPaperSpecsRoundTrip pins that each builder's Spec is plain data: it
// survives JSON, validates, and compiles into the advertised flow groups.
func TestPaperSpecsRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		spec   *Spec
		groups map[string]int // group name → replicas
	}{
		{"A", PaperScenarioA(3, 2, 1, 1.5, "lia", 1, 1, 2), map[string]int{"type1": 3, "type2": 2}},
		{"B single-path red", PaperScenarioB(4, 27, 36, "olia", false, 1, 1, 2), map[string]int{"blue": 4, "red": 4}},
		{"B multipath red", PaperScenarioB(4, 27, 36, "olia", true, 1, 1, 2), map[string]int{"blue": 4, "red": 4}},
		{"C", PaperScenarioC(2, 3, 2, 1, "olia", 1, 1, 2), map[string]int{"multi": 2, "single": 3}},
		{"two-link", PaperTwoLink(10, 5, 2, "olia", 1, 1, 2), map[string]int{"tcp1": 5, "tcp2": 2, "mp": 1}},
		{"two-link without background on link 1", PaperTwoLink(10, 0, 2, "lia", 1, 1, 2), map[string]int{"tcp1": 0, "tcp2": 2, "mp": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var back Spec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, tc.spec) {
				t.Fatalf("JSON round trip changed the spec:\n%+v\n%+v", tc.spec, &back)
			}
			if err := back.Validate(); err != nil {
				t.Fatal(err)
			}
			n, err := Compile(&back)
			if err != nil {
				t.Fatal(err)
			}
			rep := &RunReport{Flows: make([]FlowReport, len(n.Flows))}
			for name, want := range tc.groups {
				if got := len(rep.Group(&back, name)); got != want {
					t.Errorf("group %q has %d replicas, want %d", name, got, want)
				}
			}
		})
	}
}

// TestPaperSpecsRejectBadParameters pins that nonsensical testbed
// parameters surface as Validate errors rather than as a malformed network.
func TestPaperSpecsRejectBadParameters(t *testing.T) {
	cases := []struct {
		name    string
		spec    *Spec
		wantErr string
	}{
		{"A without type1 users", PaperScenarioA(0, 1, 1, 1, "lia", 1, 1, 2), "rate must be positive"},
		{"B without users", PaperScenarioB(0, 1, 1, "lia", false, 1, 1, 2), "no flows"},
		{"B with a negative user count", PaperScenarioB(-1, 1, 1, "lia", true, 1, 1, 2), "negative count"},
		{"C with a zero capacity", PaperScenarioC(1, 1, 0, 1, "lia", 1, 1, 2), "rate must be positive"},
		{"two-link with a negative capacity", PaperTwoLink(-1, 0, 0, "lia", 1, 1, 2), "rate must be positive"},
		{"two-link with a negative background count", PaperTwoLink(10, -1, 0, "lia", 1, 1, 2), "negative count"},
		{"two-link with an unknown controller", PaperTwoLink(10, 1, 1, "cubic", 1, 1, 2), "unknown algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
