package fluid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const rtt = 0.1

// oneLinkOneTCP is the simplest sanity network: one user, one route.
func oneLinkOneTCP() *Model {
	net := &Network{
		Links: []Link{{Capacity: 833, P0: 0.02, Sharpness: 8}},
		Users: []User{{Routes: []Route{{Links: []int{0}, RTT: rtt}}}},
	}
	return NewModel(net, Uncoupled)
}

func TestTCPFluidEquilibriumSelfConsistent(t *testing.T) {
	m := oneLinkOneTCP()
	x, ok := m.Equilibrium()
	if !ok {
		t.Fatal("no convergence")
	}
	// At equilibrium: x = √(2/p(x))/rtt.
	p := m.Net.Links[0].Loss(x[0])
	want := math.Sqrt(2/p) / rtt
	if math.Abs(x[0]-want)/want > 0.01 {
		t.Fatalf("x=%v, loss-throughput predicts %v", x[0], want)
	}
}

// scenarioCNet builds a fluid Scenario C: nMP multipath users over links
// {0} and {1}, nSP single-path users over link {1}.
func scenarioCNet(c1, c2 float64, nMP, nSP int, algo Algo) *Model {
	net := &Network{
		Links: []Link{
			{Capacity: c1, P0: 0.02, Sharpness: 12},
			{Capacity: c2, P0: 0.02, Sharpness: 12},
		},
	}
	for i := 0; i < nMP; i++ {
		net.Users = append(net.Users, User{Routes: []Route{
			{Links: []int{0}, RTT: rtt},
			{Links: []int{1}, RTT: rtt},
		}})
	}
	for i := 0; i < nSP; i++ {
		net.Users = append(net.Users, User{Routes: []Route{
			{Links: []int{1}, RTT: rtt},
		}})
	}
	return NewModel(net, algo)
}

func TestTheorem1OnlyBestPathsUsed(t *testing.T) {
	// Make link 1 much worse: small capacity shared with single-path users.
	m := scenarioCNet(2000, 700, 2, 2, OLIA)
	x, ok := m.Equilibrium()
	if !ok {
		t.Fatal("no convergence")
	}
	loads := m.linkLoads(x)
	p0 := m.Net.Links[0].Loss(loads[0])
	p1 := m.Net.Links[1].Loss(loads[1])
	if p0 >= p1 {
		t.Fatalf("setup broken: p0=%v p1=%v", p0, p1)
	}
	for u := 0; u < 2; u++ {
		x2 := x[m.Index(u, 1)]
		floor := 1 / rtt
		// (i) Non-best path pinned at the probing floor.
		if x2 > 3*floor {
			t.Errorf("user %d keeps %.1f pkts/s on the worse path (floor %.1f)", u, x2, floor)
		}
		// (ii) Total rate equals TCP on the best path.
		total := m.UserRate(x, u)
		want := math.Sqrt(2/p0) / rtt
		if math.Abs(total-want)/want > 0.08 {
			t.Errorf("user %d total %.1f, Theorem 1 predicts %.1f", u, total, want)
		}
	}
}

func TestTheorem4UtilityNondecreasing(t *testing.T) {
	m := scenarioCNet(1500, 1000, 2, 2, OLIA)
	x := m.InitialState()
	prev := m.Utility(x)
	for step := 0; step < 200; step++ {
		m.Integrate(x, 0.002, 100)
		v := m.Utility(x)
		// Allow tiny numerical wiggle from the clamped floor.
		if v < prev-1e-6*math.Abs(prev) {
			t.Fatalf("V decreased at step %d: %v -> %v", step, prev, v)
		}
		prev = v
	}
}

func TestOLIAFluidBeatsLIAForSinglePathUsers(t *testing.T) {
	// C1 > C2: multipath users should vacate link 1 (scenario C's claim).
	rate := func(algo Algo) float64 {
		m := scenarioCNet(2000, 800, 2, 2, algo)
		x, ok := m.Equilibrium()
		if !ok {
			t.Fatal("no convergence")
		}
		return m.UserRate(x, 2) // first single-path user
	}
	olia := rate(OLIA)
	lia := rate(LIA)
	if olia <= lia {
		t.Fatalf("single-path fluid rate: OLIA %.1f <= LIA %.1f", olia, lia)
	}
}

func TestOLIAFluidSymmetricSplitsEvenly(t *testing.T) {
	m := scenarioCNet(1000, 1000, 2, 0, OLIA)
	x, ok := m.Equilibrium()
	if !ok {
		t.Fatal("no convergence")
	}
	for u := 0; u < 2; u++ {
		a, b := x[m.Index(u, 0)], x[m.Index(u, 1)]
		if math.Abs(a-b)/math.Max(a, b) > 0.15 {
			t.Errorf("user %d asymmetric on identical links: %.1f vs %.1f", u, a, b)
		}
	}
}

func TestLIAFluidKeepsMoreOnCongestedPath(t *testing.T) {
	// LIA's Eq. 2: windows ∝ 1/p_r — substantial traffic on the worse
	// path, unlike OLIA's floor-level probing.
	mOLIA := scenarioCNet(2000, 700, 2, 2, OLIA)
	mLIA := scenarioCNet(2000, 700, 2, 2, LIA)
	xO, _ := mOLIA.Equilibrium()
	xL, _ := mLIA.Equilibrium()
	if xL[mLIA.Index(0, 1)] <= 1.5*xO[mOLIA.Index(0, 1)] {
		t.Fatalf("LIA congested-path rate %.1f not clearly above OLIA's %.1f",
			xL[mLIA.Index(0, 1)], xO[mOLIA.Index(0, 1)])
	}
}

func TestUncoupledFluidTakesTwoShares(t *testing.T) {
	// ε=2 on symmetric links behaves as two TCP flows: each path converges
	// to the single-path TCP equilibrium of its link.
	m := scenarioCNet(1000, 1000, 1, 0, Uncoupled)
	x, ok := m.Equilibrium()
	if !ok {
		t.Fatal("no convergence")
	}
	loads := m.linkLoads(x)
	p := m.Net.Links[0].Loss(loads[0])
	want := math.Sqrt(2/p) / rtt
	if math.Abs(x[0]-want)/want > 0.05 {
		t.Fatalf("uncoupled path rate %.1f, TCP predicts %.1f", x[0], want)
	}
}

func TestCongestionIntegralMatchesNumeric(t *testing.T) {
	l := Link{Capacity: 500, P0: 0.05, Sharpness: 6}
	for _, y := range []float64{10, 250, 500, 900, 2000} {
		// Trapezoidal numeric integral.
		const n = 200_000
		var acc float64
		for i := 0; i < n; i++ {
			s0 := y * float64(i) / n
			s1 := y * float64(i+1) / n
			acc += (l.Loss(s0) + l.Loss(s1)) / 2 * (s1 - s0)
		}
		got := l.CongestionIntegral(y)
		if math.Abs(got-acc) > 1e-3*math.Max(1, acc) {
			t.Errorf("integral(%v) = %v, numeric %v", y, got, acc)
		}
	}
}

// Property: link loss is increasing and bounded by [0, 1].
func TestPropertyLinkLossMonotone(t *testing.T) {
	f := func(a, b uint16, p0 uint8, sharp uint8) bool {
		l := Link{
			Capacity:  100 + float64(a%1000),
			P0:        0.001 + float64(p0)/300,
			Sharpness: 1 + float64(sharp%20),
		}
		y1 := float64(a)
		y2 := y1 + float64(b)
		p1, p2 := l.Loss(y1), l.Loss(y2)
		return p1 >= 0 && p2 <= 1 && p2 >= p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pareto characterization — at an OLIA equilibrium, scaling any
// single user's rates up increases the congestion cost (you cannot gain for
// free), matching Theorem 3's tradeoff.
func TestPropertyTheorem3CostTradeoff(t *testing.T) {
	m := scenarioCNet(1500, 900, 2, 2, OLIA)
	xeq, ok := m.Equilibrium()
	if !ok {
		t.Fatal("no convergence")
	}
	baseCost := m.CongestionCost(xeq)
	f := func(uRaw, scaleRaw uint8) bool {
		u := int(uRaw) % len(m.Net.Users)
		scale := 1.05 + float64(scaleRaw%50)/100
		x := make([]float64, len(xeq))
		copy(x, xeq)
		for r := range m.Net.Users[u].Routes {
			x[m.Index(u, r)] *= scale
		}
		return m.CongestionCost(x) > baseCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidation(t *testing.T) {
	cases := []*Network{
		{Links: []Link{{Capacity: 1}}, Users: []User{{}}},
		{Links: []Link{{Capacity: 1}}, Users: []User{{Routes: []Route{{Links: []int{0}, RTT: 0}}}}},
		{Links: []Link{{Capacity: 1}}, Users: []User{{Routes: []Route{{Links: []int{5}, RTT: 0.1}}}}},
	}
	for i, net := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewModel(net, OLIA)
		}()
	}
}

func TestIndexAndDimensions(t *testing.T) {
	m := scenarioCNet(1000, 1000, 2, 3, OLIA)
	if m.NumRoutes() != 2*2+3 {
		t.Fatalf("routes %d", m.NumRoutes())
	}
	if m.Index(0, 1) != 1 || m.Index(1, 0) != 2 || m.Index(4, 0) != 6 {
		t.Fatal("index arithmetic broken")
	}
	if got := len(m.InitialState()); got != 7 {
		t.Fatalf("state dim %d", got)
	}
}

func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]Algo{"olia": OLIA, "lia": LIA, "uncoupled": Uncoupled} {
		if got, err := ParseAlgo(name); err != nil || got != want {
			t.Fatalf("ParseAlgo(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	if _, err := ParseAlgo("fullycoupled"); err == nil {
		t.Fatal("an algorithm with no fluid dynamics parsed")
	}
}
