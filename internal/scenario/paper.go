package scenario

// The paper's four testbed networks as Specs. All share the testbed's
// shape: RED bottlenecks with zero link delay, a 40 ms access pipe per
// flow path (80 ms propagation RTT; queueing raises the effective RTT to
// ≈150 ms as in §III), and Iperf sessions started in random order. Flow
// order is fixed: it decides how a spec consumes its seed's random stream,
// and the experiment goldens are byte-exact functions of it.

// testbedDelayMs is the one-way propagation delay of every testbed path.
const testbedDelayMs = 40

// testbedUsers is one group of n identical users with jittered starts. An
// empty group is left out rather than listed, because FlowSpec.Count 0
// means one replica; a spec left with no flows at all fails Validate.
func testbedUsers(name, algo string, paths []int, n int) []FlowSpec {
	if n == 0 {
		return nil
	}
	return []FlowSpec{{Name: name, Algorithm: algo, Paths: paths,
		Count: n, StartJitter: true}}
}

// PaperScenarioA expresses the paper's Fig. 1(a) testbed as a Spec: N1
// type1 multipath users download over a private path (server access link
// only, loss p1) and a path continuing across the shared AP (loss p1+p2);
// N2 type2 TCP users cross the shared AP alone. Capacities are per user
// (server link N1·C1, shared AP N2·C2, Mb/s). Both the figure experiments
// (internal/harness) and the tests' fixed-point check run this one
// definition of the topology.
func PaperScenarioA(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) *Spec {
	return &Spec{
		Name: "scenarioA", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links: []LinkSpec{
			{RateMbps: float64(n1) * c1}, // server access link (loss p1)
			{RateMbps: float64(n2) * c2}, // shared AP (loss p2)
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},    // type1 private path
			{Links: []int{0, 1}, DelayMs: testbedDelayMs}, // type1 path via the shared AP
			{Links: []int{1}, DelayMs: testbedDelayMs},    // type2 path
		},
		Flows: append(
			testbedUsers("type1", algo, []int{0, 1}, n1),
			testbedUsers("type2", AlgoTCP, []int{2}, n2)...),
	}
}

// PaperScenarioB expresses the Fig. 3 multi-homing testbed: N Blue users
// multi-homed across ISPs X and T (bottlenecks of CX and CT Mb/s), and N
// Red users on T, either as plain TCP or — upgraded — as multipath users
// with the dashed second path. The operative path structure implied by the
// paper's capacity constraints (CX = N(x1+y1), CT = N(x2+y1+y2),
// Appendix B) is: Blue path 1 crosses X; Blue path 2 crosses T; Red's own
// path crosses T; Red's upgrade path crosses X then T in series. The
// cut-set bound of CX+CT quoted in §III-B follows.
func PaperScenarioB(n int, cx, ct float64, algo string, redMultipath bool, seed int64, warmupSec, durationSec float64) *Spec {
	red := testbedUsers("red", AlgoTCP, []int{1}, n)
	if redMultipath {
		red = testbedUsers("red", algo, []int{2, 1}, n)
	}
	return &Spec{
		Name: "scenarioB", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links: []LinkSpec{
			{RateMbps: cx}, // ISP X
			{RateMbps: ct}, // ISP T
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},    // via X
			{Links: []int{1}, DelayMs: testbedDelayMs},    // via T
			{Links: []int{0, 1}, DelayMs: testbedDelayMs}, // Red's upgrade path: X then T
		},
		Flows: append(testbedUsers("blue", algo, []int{0, 1}, n), red...),
	}
}

// PaperScenarioC expresses the Fig. 5(a) testbed: N1 multipath users
// across two APs of capacity N1·C1 and N2·C2 Mb/s, and N2 single-path TCP
// users on AP2. Unlike Scenario A the two multipath subflow paths are
// disjoint (losses p1 and p2 respectively).
func PaperScenarioC(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) *Spec {
	return &Spec{
		Name: "scenarioC", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links: []LinkSpec{
			{RateMbps: float64(n1) * c1}, // AP1
			{RateMbps: float64(n2) * c2}, // AP2
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},
			{Links: []int{1}, DelayMs: testbedDelayMs},
		},
		Flows: append(
			testbedUsers("multi", algo, []int{0, 1}, n1),
			testbedUsers("single", AlgoTCP, []int{1}, n2)...),
	}
}

// PaperTwoLink expresses the Fig. 6 illustration network: one multipath
// user ("mp", started at 0.5 s) over two bottleneck links of capacity C
// Mb/s, link i shared with nTCPi regular TCP flows ("tcp1", "tcp2"). A
// background group with no flows is left out, so look groups up with
// Net.Group, not by position. The ablations vary the returned Spec in
// place: queue discipline on Links, path 1's delay for RTT heterogeneity,
// and the slow-start, window-cap and increase-cap fields of the "mp" flow,
// which is always the last entry of Flows.
func PaperTwoLink(c float64, nTCP1, nTCP2 int, algo string, seed int64, warmupSec, durationSec float64) *Spec {
	return &Spec{
		Name: "twolink", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links:       []LinkSpec{{RateMbps: c}, {RateMbps: c}},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},
			{Links: []int{1}, DelayMs: testbedDelayMs},
		},
		Flows: append(append(
			testbedUsers("tcp1", AlgoTCP, []int{0}, nTCP1),
			testbedUsers("tcp2", AlgoTCP, []int{1}, nTCP2)...),
			FlowSpec{Name: "mp", Algorithm: algo, Paths: []int{0, 1}, StartSec: 0.5}),
	}
}
