package scenario

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/fluid"
	"mptcpsim/internal/netem"
)

// TestFluid pins the Spec-to-fluid mapping: the dynamics each Spec
// compiles to, the field each unmodelled input is rejected by name, and the
// tier3 conformance Spec as a literal network.
func TestFluid(t *testing.T) {
	tier3 := func(algo string) *Spec {
		return ConformanceSpec("tier3", []float64{2, 4, 8}, []int{3, 2, 1}, algo, 1, 5, 20)
	}
	edit := func(f func(sp *Spec)) *Spec {
		sp := tier3("olia")
		f(sp)
		return sp
	}
	for _, tc := range []struct {
		name string
		sp   *Spec
		algo fluid.Algo
		// field is the name the error must carry; empty means compiled.
		field string
	}{
		{"olia", tier3("olia"), fluid.OLIA, ""},
		{"lia", tier3("lia"), fluid.LIA, ""},
		{"uncoupled", tier3("uncoupled"), fluid.Uncoupled, ""},
		{"all tcp", edit(func(sp *Spec) { sp.Flows = sp.Flows[1:] }), fluid.Uncoupled, ""},
		{"fullycoupled", tier3("fullycoupled"), 0, "Algorithm"},
		{"invalid", edit(func(sp *Spec) { sp.Flows = nil }), 0, "no flows"},
		{"droptail", edit(func(sp *Spec) { sp.Links[1].Queue = QueueDropTail }), 0, "Queue"},
		{"random loss", edit(func(sp *Spec) { sp.Links[2].LossPct = 1 }), 0, "LossPct"},
		{"timeline", edit(func(sp *Spec) {
			sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, RateMbps: 3}}}
		}), 0, "Timeline"},
		{"finite", edit(func(sp *Spec) { sp.Flows[1].FlowBytes = 1 << 20 }), 0, "FlowBytes"},
		{"scheduled", edit(func(sp *Spec) {
			sp.Flows[0].FlowBytes, sp.Flows[0].Scheduler = 1<<20, "minrtt"
		}), 0, "FlowBytes"},
		{"stopped", edit(func(sp *Spec) { sp.Flows[2].StopSec = 3 }), 0, "StopSec"},
		{"window cap", edit(func(sp *Spec) { sp.Flows[0].MaxCwndPkts = 8 }), 0, "MaxCwndPkts"},
		{"two algorithms", edit(func(sp *Spec) {
			sp.Flows = append(sp.Flows, FlowSpec{Algorithm: "lia", Paths: []int{0, 1}})
		}), 0, "Algorithm"},
	} {
		m, err := Fluid(tc.sp)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.field == "" && m.Algo != tc.algo:
			t.Errorf("%s: dynamics %v, want %v", tc.name, m.Algo, tc.algo)
		case tc.field != "" && err == nil:
			t.Errorf("%s: compiled, want an error naming %s", tc.name, tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}

	m, err := Fluid(tier3("olia"))
	if err != nil {
		t.Fatal(err)
	}
	pkts := func(mbps float64) float64 { return mbps * 1e6 / (8 * netem.MSS) }
	link := func(mbps float64) fluid.Link { return fluid.Link{Capacity: pkts(mbps), P0: 0.02, Sharpness: 12} }
	tcp := func(l int) fluid.User { return fluid.User{Routes: []fluid.Route{{Links: []int{l}, RTT: 0.15}}} }
	want := &fluid.Network{
		Links: []fluid.Link{link(2), link(4), link(8)},
		Users: []fluid.User{
			{Routes: []fluid.Route{{Links: []int{0}, RTT: 0.15}, {Links: []int{1}, RTT: 0.15}, {Links: []int{2}, RTT: 0.15}}},
			tcp(0), tcp(0), tcp(0), tcp(1), tcp(1), tcp(2),
		},
	}
	if !reflect.DeepEqual(m.Net, want) {
		t.Errorf("tier3 compiled to %+v, want %+v", m.Net, want)
	}

	// Every testbed route, shared-link ones included, is at the paper's RTT.
	specs := []*Spec{
		PaperScenarioA(10, 10, 1, 1, "lia", 1, 5, 30),
		PaperScenarioB(15, 27, 36, "olia", false, 1, 5, 30),
		PaperScenarioB(15, 27, 36, "olia", true, 1, 5, 30),
		PaperScenarioC(10, 10, 1, 1, "olia", 1, 5, 30),
		PaperTwoLink(1, 5, 5, "olia", 1, 5, 30),
	}
	for _, algo := range []string{"olia", "lia", "uncoupled"} {
		specs = append(specs,
			ConformanceSpec("tier3", []float64{2, 4, 8}, []int{3, 2, 1}, algo, 1, 5, 30),
			ConformanceSpec("asym3", []float64{2, 4, 8}, []int{2, 2, 2}, algo, 1, 5, 30),
			ConformanceSpec("steep4", []float64{1.5, 3, 5, 12}, []int{1, 2, 2, 2}, algo, 1, 5, 30))
	}
	for _, sp := range specs {
		m, err := Fluid(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		for u, user := range m.Net.Users {
			for r, route := range user.Routes {
				if route.RTT != fixedpoint.PaperRTT {
					t.Errorf("%s: user %d route %d RTT %v, want %v", sp.Name, u, r, route.RTT, fixedpoint.PaperRTT)
				}
			}
		}
	}
}

// TestFluidHonoursRev: a route with reverse links of its own returns over
// them, so its RTT adds their delays instead of the shared return link's.
func TestFluidHonoursRev(t *testing.T) {
	m, err := Fluid(&Spec{
		Name: "rev", Seed: 1, DurationSec: 10,
		Links: []LinkSpec{{RateMbps: 4, DelayMs: 5}, {RateMbps: 4}, {RateMbps: 100, DelayMs: 25}},
		Paths: []PathSpec{{Links: []int{0}, DelayMs: 10, Rev: []int{2}}, {Links: []int{1}, DelayMs: 10}},
		Flows: []FlowSpec{{Name: "mp", Algorithm: "olia", Paths: []int{0, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 ms access + 5 ms link + 25 ms back over link 2 + 70 ms queueing;
	// 10 ms access + 40 ms shared return + 70 ms queueing.
	routes := m.Net.Users[0].Routes
	if routes[0].RTT != 0.110 || routes[1].RTT != 0.120 {
		t.Fatalf("RTTs %v s and %v s, want 0.110 s over the reverse link and 0.120 s over the shared one", routes[0].RTT, routes[1].RTT)
	}
}

// TestFluidUsersAreReportFlows: user u of the compiled model is flow u of
// the packet run's report, and its routes are that flow's paths in order.
func TestFluidUsersAreReportFlows(t *testing.T) {
	sp := PaperScenarioB(2, 4, 6, "olia", true, 1, 0, 1)
	m, err := Fluid(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != len(m.Net.Users) {
		t.Fatalf("%d report flows, %d fluid users", len(rep.Flows), len(m.Net.Users))
	}
	u := 0
	for _, f := range sp.Flows {
		for r := range f.count() {
			if want := fmt.Sprintf("%s-%d", f.Name, r); rep.Flows[u].Name != want {
				t.Errorf("user %d is report flow %q, want %q", u, rep.Flows[u].Name, want)
			}
			routes := m.Net.Users[u].Routes
			if len(routes) != len(rep.Flows[u].PathMbps) {
				t.Errorf("user %d: %d routes, %d report paths", u, len(routes), len(rep.Flows[u].PathMbps))
				continue
			}
			for i, pi := range f.Paths {
				if !reflect.DeepEqual(routes[i].Links, sp.Paths[pi].Links) {
					t.Errorf("user %d route %d crosses %v, path %d %v", u, i, routes[i].Links, pi, sp.Paths[pi].Links)
				}
			}
			u++
		}
	}
}

// NormTolerance bounds a normalized throughput's distance from its
// closed-form fixed point, for the fluid model here and for the packet
// run in TestPaperScenarioClaims.
const NormTolerance = 0.15

// TestFluidPaperScenarios solves the paper's shared-link testbeds compiled
// from their Specs and checks them against the closed forms: Scenario A
// (the harness's 3×3 grid) and C (2×4) under LIA within NormTolerance of
// Appendix A's and §III-C's fixed points, OLIA above LIA for the users the
// paper shows LIA hurting, and LIA's Scenario B upgrade costing the
// aggregate more than 10 %. The smooth loss curve runs links a little
// below capacity, so LIA sits near, not at, its fixed point. OLIA on
// Scenario B is left out: it does not converge within Equilibrium's budget.
func TestFluidPaperScenarios(t *testing.T) {
	solve := func(sp *Spec) (*fluid.Model, []float64) {
		t.Helper()
		m, err := Fluid(sp)
		if err != nil {
			t.Fatal(err)
		}
		x, ok := m.Equilibrium()
		if !ok {
			t.Errorf("%s (fluid algo %d): fluid equilibrium did not converge", sp.Name, m.Algo)
		}
		return m, x
	}
	// mbps sums users [from, to)'s rates in Mb/s.
	mbps := func(m *fluid.Model, x []float64, from, to int) float64 {
		var sum float64
		for u := from; u < to; u++ {
			sum += m.UserRate(x, u)
		}
		return sum * 8 * netem.MSS / 1e6
	}
	const n2, c2 = 10, 1.0
	for _, n1 := range []int{10, 20, 30} {
		for _, c1 := range []float64{0.75, 1, 1.5} {
			norms := func(algo string) (t1, t2 float64) {
				m, x := solve(PaperScenarioA(n1, n2, c1, c2, algo, 1, 5, 30))
				return mbps(m, x, 0, n1) / (float64(n1) * c1), mbps(m, x, n1, n1+n2) / (n2 * c2)
			}
			t1, t2 := norms("lia")
			ana, err := fixedpoint.ScenarioALIA(float64(n1), n2, c1, c2, fixedpoint.PaperRTT)
			if err != nil {
				t.Fatal(err)
			}
			if d1, d2 := t1-ana.Type1Norm, t2-ana.Type2Norm; max(d1, -d1, d2, -d2) > NormTolerance {
				t.Errorf("A n1=%d c1=%g: LIA t1 %.3f t2 %.3f, fixed point %.3f %.3f", n1, c1, t1, t2, ana.Type1Norm, ana.Type2Norm)
			}
			if _, o2 := norms("olia"); o2 <= t2 {
				t.Errorf("A n1=%d c1=%g: OLIA type2 %.3f not above LIA's %.3f", n1, c1, o2, t2)
			}
		}
	}
	for _, n1 := range []int{5, 10, 20, 30} {
		for _, c1 := range []float64{1, 2} {
			norms := func(algo string) (multi, single float64) {
				m, x := solve(PaperScenarioC(n1, n2, c1, c2, algo, 1, 5, 30))
				return mbps(m, x, 0, n1) / (float64(n1) * c1), mbps(m, x, n1, n1+n2) / (n2 * c2)
			}
			multi, single := norms("lia")
			ana, err := fixedpoint.ScenarioCLIA(float64(n1), n2, c1, c2, fixedpoint.PaperRTT)
			if err != nil {
				t.Fatal(err)
			}
			if d1, d2 := multi-ana.MultiNorm, single-ana.SingleNorm; max(d1, -d1, d2, -d2) > NormTolerance {
				t.Errorf("C n1=%d c1=%g: LIA multi %.3f single %.3f, fixed point %.3f %.3f", n1, c1, multi, single, ana.MultiNorm, ana.SingleNorm)
			}
			if _, o := norms("olia"); o <= single {
				t.Errorf("C n1=%d c1=%g: OLIA single %.3f not above LIA's %.3f", n1, c1, o, single)
			}
		}
	}
	aggregate := func(redMultipath bool) float64 {
		m, x := solve(PaperScenarioB(15, 27, 36, "lia", redMultipath, 1, 5, 30))
		return mbps(m, x, 0, len(m.Net.Users))
	}
	if before, after := aggregate(false), aggregate(true); after > 0.9*before {
		t.Errorf("B: LIA upgrade moves the aggregate %.2f -> %.2f Mb/s, want a drop of more than 10%%", before, after)
	}
}
