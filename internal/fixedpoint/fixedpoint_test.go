package fixedpoint

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTCPRateFormula(t *testing.T) {
	// p=0.02, rtt=0.1: √(100)/0.1 = 100 pkt/s.
	if got := TCPRate(0.02, 0.1); math.Abs(got-100) > 1e-9 {
		t.Fatalf("TCPRate %v, want 100", got)
	}
	if !math.IsInf(TCPRate(0, 0.1), 1) {
		t.Fatal("zero loss should be Inf")
	}
}

func TestLIAWindowsEquation2(t *testing.T) {
	// Symmetric case: equal p, equal rtt → equal windows w_r = x_r·rtt_r,
	// and total rate equals TCP on either path.
	p := []float64{0.01, 0.01}
	rtts := []float64{0.1, 0.1}
	x := LIARates(p, rtts)
	if w0, w1 := x[0]*rtts[0], x[1]*rtts[1]; math.Abs(w0-w1) > 1e-9 {
		t.Fatalf("asymmetric windows %v, %v", w0, w1)
	}
	total := x[0] + x[1]
	if math.Abs(total-TCPRate(0.01, 0.1)) > 1e-6 {
		t.Fatalf("total rate %v, want %v", total, TCPRate(0.01, 0.1))
	}
}

func TestLIAWindowsLoadBalance(t *testing.T) {
	// Windows proportional to 1/p_r (Eq. 2).
	p := []float64{0.01, 0.02}
	rtts := []float64{0.1, 0.1}
	x := LIARates(p, rtts)
	if ratio := (x[0] * rtts[0]) / (x[1] * rtts[1]); math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("w0/w1 = %v, want 2", ratio)
	}
}

// Property: LIA total rate (Eq. 2) always equals the best single-path TCP
// rate, for any loss vector — the "improve throughput + do no harm" pair.
func TestPropertyLIATotalEqualsBestTCP(t *testing.T) {
	f := func(ps []uint16) bool {
		n := len(ps)
		if n == 0 {
			return true
		}
		if n > 6 {
			n = 6
		}
		p := make([]float64, n)
		rtts := make([]float64, n)
		for i := 0; i < n; i++ {
			p[i] = 0.001 + float64(ps[i]%1000)/10000
			rtts[i] = 0.1
		}
		rates := LIARates(p, rtts)
		var total, best float64
		for i := 0; i < n; i++ {
			total += rates[i]
			if r := TCPRate(p[i], rtts[i]); r > best {
				best = r
			}
		}
		return math.Abs(total-best)/best < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestOLIARatesUseOnlyBestPaths(t *testing.T) {
	p := []float64{0.01, 0.04, 0.0025}
	rtts := []float64{0.1, 0.1, 0.1}
	rates := OLIARates(p, rtts)
	if rates[0] != 0 || rates[1] != 0 {
		t.Fatalf("non-best paths carry traffic: %v", rates)
	}
	if math.Abs(rates[2]-TCPRate(0.0025, 0.1)) > 1e-9 {
		t.Fatalf("best-path rate %v", rates[2])
	}
}

func TestOLIARatesSplitEqualBest(t *testing.T) {
	p := []float64{0.01, 0.01}
	rtts := []float64{0.1, 0.1}
	rates := OLIARates(p, rtts)
	if math.Abs(rates[0]-rates[1]) > 1e-9 {
		t.Fatalf("unequal split on identical paths: %v", rates)
	}
	if math.Abs(rates[0]+rates[1]-TCPRate(0.01, 0.1)) > 1e-6 {
		t.Fatalf("total %v", rates[0]+rates[1])
	}
}

func TestMismatchedSlicesPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { LIARates([]float64{0.1}, []float64{0.1, 0.2}) },
		func() { OLIARates([]float64{0.1}, []float64{0.1, 0.2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// The closed forms report loss probabilities beside their rates; fed back
// through the law they came from, those losses must give the rates back.
func TestClosedFormLossesReproduceRates(t *testing.T) {
	check := func(what string, p, wantMbps float64) {
		t.Helper()
		got := TCPRate(p, PaperRTT) * mss * 8 / 1e6
		if e := math.Abs(got-wantMbps) / wantMbps; e > 1e-9 {
			t.Errorf("%s: TCPRate gives %v Mb/s, want %v (relative error %.3g)", what, got, wantMbps, e)
		}
	}
	for _, n1 := range []float64{1, 5, 10, 20, 30, 40} {
		for _, c1 := range []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 4} {
			a, err := ScenarioALIA(n1, 10, c1, 1, PaperRTT)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("A n1=%v c1=%v P1", n1, c1), a.P1, a.X1+a.X2)
			check(fmt.Sprintf("A n1=%v c1=%v P2", n1, c1), a.P2, a.Y)
			if c1 < 1/(2+n1/10) {
				continue // the fair regime of Scenario C reports no losses
			}
			c, err := ScenarioCLIA(n1, 10, c1, 1, PaperRTT)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("C n1=%v c1=%v P1", n1, c1), c.P1, c.X1+c.X2)
			check(fmt.Sprintf("C n1=%v c1=%v P2", n1, c1), c.P2, c.Y)
		}
	}
	const ct = 36.0
	for _, ratio := range []float64{0.1, 0.25, 0.4, 5.0 / 9, 0.75, 1, 1.5, 3} {
		b, err := ScenarioBLIA(15, ratio*ct, ct, true, PaperRTT)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("B cx/ct=%v PT", ratio), b.PT, b.RedPerUser)
		check(fmt.Sprintf("B cx/ct=%v min(PX, PT)", ratio), math.Min(b.PX, b.PT), b.BluePerUser)
	}
}

func TestBisectFindsRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := bisect(f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Fatalf("root %v", root)
	}
}

func TestBisectEndpointsAndErrors(t *testing.T) {
	if r, err := bisect(func(x float64) float64 { return x }, 0, 1); err != nil || r != 0 {
		t.Fatalf("lo-root: %v %v", r, err)
	}
	if r, err := bisect(func(x float64) float64 { return x - 1 }, 0, 1); err != nil || r != 1 {
		t.Fatalf("hi-root: %v %v", r, err)
	}
	if _, err := bisect(func(x float64) float64 { return 1 }, 0, 1); err == nil {
		t.Fatal("expected no-sign-change error")
	}
}

func TestProbeRate(t *testing.T) {
	// 1500 B per 150 ms = 12 kbit / 0.15 s = 0.08 Mb/s.
	if got := ProbeRate(PaperRTT); math.Abs(got-0.08) > 1e-12 {
		t.Fatalf("probe rate %v", got)
	}
	// Fig. 17: at 25 ms the probe is 6x more expensive.
	if got := ProbeRate(0.025); math.Abs(got-0.48) > 1e-12 {
		t.Fatalf("probe rate at 25ms: %v", got)
	}
}

func TestScenarioALIAEquation10(t *testing.T) {
	// The solution must satisfy Eq. 10: z + (N1/N2) z²/(1+2z²) = C2/C1.
	for _, tc := range []struct{ n1, n2, c1, c2 float64 }{
		{10, 10, 1, 1}, {20, 10, 0.75, 1}, {30, 10, 1.5, 1},
	} {
		res, err := ScenarioALIA(tc.n1, tc.n2, tc.c1, tc.c2, PaperRTT)
		if err != nil {
			t.Fatal(err)
		}
		z := res.Y / tc.c1
		lhs := z + tc.n1/tc.n2*z*z/(1+2*z*z)
		if math.Abs(lhs-tc.c2/tc.c1) > 1e-9 {
			t.Errorf("n1=%v: Eq.10 residual %v", tc.n1, lhs-tc.c2/tc.c1)
		}
		if res.Type1Norm != 1 {
			t.Errorf("type1 norm %v", res.Type1Norm)
		}
		// Capacity conservation at the shared AP: N1·x2 + N2·y = N2·C2.
		if got := tc.n1*res.X2 + tc.n2*res.Y; math.Abs(got-tc.n2*tc.c2) > 1e-9 {
			t.Errorf("shared AP conservation: %v vs %v", got, tc.n2*tc.c2)
		}
		// z = √(p1/p2) consistency.
		if math.Abs(math.Sqrt(res.P1/res.P2)-z) > 1e-9 {
			t.Errorf("p-ratio inconsistent with z")
		}
	}
}

func TestScenarioALIADegradesWithN1(t *testing.T) {
	// The paper: at N1=N2 type2 lose ≈30%; at N1=3N2 they lose 50-60%.
	r1, _ := ScenarioALIA(10, 10, 1, 1, PaperRTT)
	r2, _ := ScenarioALIA(30, 10, 1, 1, PaperRTT)
	if r1.Type2Norm < 0.6 || r1.Type2Norm > 0.8 {
		t.Errorf("N1=N2 type2 norm %.3f, paper reports ≈0.7", r1.Type2Norm)
	}
	if r2.Type2Norm < 0.35 || r2.Type2Norm > 0.55 {
		t.Errorf("N1=3N2 type2 norm %.3f, paper reports 0.4-0.5", r2.Type2Norm)
	}
	if r2.Type2Norm >= r1.Type2Norm {
		t.Error("type2 must degrade as N1 grows")
	}
	// More MPTCP users must raise p2.
	if r2.P2 <= r1.P2 {
		t.Error("p2 must grow with N1")
	}
}

func TestScenarioALIADependsOnlyOnRatios(t *testing.T) {
	a, _ := ScenarioALIA(10, 10, 1, 1, PaperRTT)
	b, _ := ScenarioALIA(20, 20, 1, 1, PaperRTT)
	if math.Abs(a.Type2Norm-b.Type2Norm) > 1e-12 {
		t.Fatalf("normalized throughput should depend only on N1/N2: %v vs %v",
			a.Type2Norm, b.Type2Norm)
	}
}

func TestScenarioAOptimum(t *testing.T) {
	res := ScenarioAOptimum(10, 10, 1, 1, PaperRTT)
	// y = C2 − (N1/N2)·0.08 = 0.92.
	if math.Abs(res.Y-0.92) > 1e-12 {
		t.Fatalf("optimum y %v", res.Y)
	}
	if res.X2 != 0.08 || res.Type1Norm != 1 {
		t.Fatalf("optimum x2 %v", res.X2)
	}
	// Optimum dominates LIA for type2.
	lia, _ := ScenarioALIA(10, 10, 1, 1, PaperRTT)
	if res.Type2Norm <= lia.Type2Norm {
		t.Fatal("optimum should beat LIA for type2")
	}
}

func TestScenarioCLIACubic(t *testing.T) {
	res, err := ScenarioCLIA(10, 10, 1, 1, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	z := math.Sqrt(res.P1 / res.P2)
	if resid := z*z*z + z*z + z - 1; math.Abs(resid) > 1e-9 {
		t.Fatalf("cubic residual %v", resid)
	}
	if math.Abs(res.MultiNorm-(1+z*z)) > 1e-9 {
		t.Fatalf("multi norm %v vs 1+z² %v", res.MultiNorm, 1+z*z)
	}
	// AP2 conservation: N1·x2 + N2·y = N2·C2.
	if got := 10*res.X2 + 10*res.Y; math.Abs(got-10) > 1e-9 {
		t.Fatalf("AP2 conservation %v", got)
	}
}

func TestScenarioCLIAFairnessBoundary(t *testing.T) {
	// The paper: LIA is fair as long as C1 < C2/3 (N1=N2); beyond that it
	// takes most of AP2 for itself.
	fair, err := ScenarioCLIA(10, 10, 0.2, 1, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fair.Y-(0.2+1)/2) > 1e-9 {
		t.Fatalf("fair regime y %v, want 0.6", fair.Y)
	}
	unfair, err := ScenarioCLIA(10, 10, 1, 1, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	if unfair.SingleNorm >= 0.9 {
		t.Fatalf("single norm %v: LIA should be aggressive at C1=C2", unfair.SingleNorm)
	}
	if unfair.MultiNorm <= 1 {
		t.Fatalf("multi norm %v: multipath should exceed C1", unfair.MultiNorm)
	}
}

func TestScenarioCOptimum(t *testing.T) {
	// C1/C2 = 2 ≥ 1: multipath should only probe AP2.
	res := ScenarioCOptimum(10, 10, 2, 1, PaperRTT)
	if math.Abs(res.X2-0.08) > 1e-12 {
		t.Fatalf("optimum probe %v", res.X2)
	}
	if math.Abs(res.Y-0.92) > 1e-12 {
		t.Fatalf("optimum single %v", res.Y)
	}
	// C1 ≪ C2: proportional fairness shares AP2.
	res2 := ScenarioCOptimum(10, 10, 0.2, 1, PaperRTT)
	if math.Abs(res2.Y-0.6) > 1e-12 {
		t.Fatalf("fair-share single %v, want 0.6", res2.Y)
	}
}

func TestScenarioBLIASinglePathMatchesCutSet(t *testing.T) {
	// CX=27, CT=36, N=15 (Table I). Aggregate close to 63 Mb/s.
	res, err := ScenarioBLIA(15, 27, 36, false, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate > 63.0001 {
		t.Fatalf("aggregate %v exceeds cut-set", res.Aggregate)
	}
	if res.Aggregate < 55 {
		t.Fatalf("aggregate %v too low", res.Aggregate)
	}
	// Blue (multipath) get a higher share than Red, as in Table I.
	if res.BluePerUser <= res.RedPerUser {
		t.Fatalf("blue %v <= red %v", res.BluePerUser, res.RedPerUser)
	}
}

func TestScenarioBLIAUpgradeReducesAggregate(t *testing.T) {
	sp, err := ScenarioBLIA(15, 27, 36, false, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := ScenarioBLIA(15, 27, 36, true, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Aggregate >= sp.Aggregate {
		t.Fatalf("upgrade should reduce aggregate: %v -> %v", sp.Aggregate, mp.Aggregate)
	}
	// Everyone loses (problem P1): both classes drop.
	if mp.BluePerUser >= sp.BluePerUser {
		t.Fatalf("blue should lose: %v -> %v", sp.BluePerUser, mp.BluePerUser)
	}
	if mp.RedPerUser > sp.RedPerUser+1e-9 {
		t.Fatalf("red should not gain: %v -> %v", sp.RedPerUser, mp.RedPerUser)
	}
}

// The appendix's quadratic for the pX > pT regime: 2z² + z(5−2CT/CX) +
// (2−3CT/CX) = 0 must agree with our bisection solution when CX/CT < 5/9.
func TestScenarioBLIAMatchesAppendixQuadratic(t *testing.T) {
	cx, ct := 15.0, 36.0 // CX/CT = 0.417 < 5/9
	res, err := ScenarioBLIA(15, cx, ct, true, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	z := res.PX / res.PT
	if z < 1 {
		t.Fatalf("expected pX > pT regime, z = %v", z)
	}
	r := ct / cx
	resid := 2*z*z + z*(5-2*r) + (2 - 3*r)
	if math.Abs(resid) > 1e-6 {
		t.Fatalf("appendix quadratic residual %v at z=%v", resid, z)
	}
}

func TestScenarioBLIARegimeBoundary(t *testing.T) {
	// At CX/CT = 5/9 exactly, z = 1 (pX = pT).
	res, err := ScenarioBLIA(15, 20, 36, true, PaperRTT)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PX/res.PT-1) > 1e-6 {
		t.Fatalf("z at boundary %v, want 1", res.PX/res.PT)
	}
}

func TestScenarioBOptimumUpgradePenaltySmall(t *testing.T) {
	// The optimum's upgrade penalty is just the probing traffic: the paper
	// reports ≈3% at CX/CT ≈ 0.75 (vs LIA's 21%).
	sp := ScenarioBOptimum(15, 27, 36, false, PaperRTT)
	mp := ScenarioBOptimum(15, 27, 36, true, PaperRTT)
	drop := (sp.Aggregate - mp.Aggregate) / sp.Aggregate
	if drop < 0 || drop > 0.06 {
		t.Fatalf("optimum upgrade penalty %.1f%%, want small", drop*100)
	}
	liaSP, _ := ScenarioBLIA(15, 27, 36, false, PaperRTT)
	liaMP, _ := ScenarioBLIA(15, 27, 36, true, PaperRTT)
	liaDrop := (liaSP.Aggregate - liaMP.Aggregate) / liaSP.Aggregate
	if liaDrop <= drop {
		t.Fatalf("LIA drop %.1f%% should exceed optimum drop %.1f%%", liaDrop*100, drop*100)
	}
}

func TestScenarioBFig17RTTDependence(t *testing.T) {
	// Fig. 17: a smaller RTT makes probing more expensive, lowering the
	// optimum's allocation.
	slow := ScenarioBOptimum(15, 27, 36, true, 0.1)
	fast := ScenarioBOptimum(15, 27, 36, true, 0.025)
	if fast.RedPerUser >= slow.RedPerUser {
		t.Fatalf("25ms RTT should cost more probing: %v vs %v", fast.RedPerUser, slow.RedPerUser)
	}
}

func TestBadParamsError(t *testing.T) {
	if _, err := ScenarioALIA(0, 1, 1, 1, PaperRTT); err == nil {
		t.Error("scenario A should reject")
	}
	if _, err := ScenarioCLIA(1, 1, 0, 1, PaperRTT); err == nil {
		t.Error("scenario C should reject")
	}
	if _, err := ScenarioBLIA(-1, 1, 1, true, PaperRTT); err == nil {
		t.Error("scenario B should reject")
	}
}

// Property: Scenario A capacity conservation and result sanity across the
// parameter space.
func TestPropertyScenarioAConservation(t *testing.T) {
	f := func(a, b, c uint8) bool {
		n1 := 1 + float64(a%40)
		c1 := 0.25 + float64(b%16)/4
		c2 := 0.25 + float64(c%16)/4
		res, err := ScenarioALIA(n1, 10, c1, c2, PaperRTT)
		if err != nil {
			return false
		}
		if res.X1 < -1e-9 || res.X2 < -1e-9 || res.Y < -1e-9 {
			return false
		}
		if math.Abs(res.X1+res.X2-c1) > 1e-9 {
			return false
		}
		return math.Abs(n1*res.X2+10*res.Y-10*c2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scenario C single-path users never gain from more multipath
// users; p2 is nondecreasing in N1.
func TestPropertyScenarioCMonotoneInN1(t *testing.T) {
	f := func(a uint8) bool {
		n1 := 1 + float64(a%30)
		r1, err1 := ScenarioCLIA(n1, 10, 1, 1, PaperRTT)
		r2, err2 := ScenarioCLIA(n1+1, 10, 1, 1, PaperRTT)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.SingleNorm <= r1.SingleNorm+1e-9 && r2.P2 >= r1.P2-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scenario B aggregate never exceeds the cut-set bound CX+CT.
func TestPropertyScenarioBCutSet(t *testing.T) {
	f := func(a, b uint8, mp bool) bool {
		cx := 1 + float64(a%60)
		ct := 1 + float64(b%60)
		res, err := ScenarioBLIA(15, cx, ct, mp, PaperRTT)
		if err != nil {
			return false
		}
		return res.Aggregate <= cx+ct+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}
