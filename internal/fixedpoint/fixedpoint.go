// Package fixedpoint holds the paper's loss-throughput laws and the closed
// forms built on them.
//
// The laws map per-path loss probabilities and RTTs to equilibrium rates:
//
//	TCP:  x = √(2/p)/rtt                               (Misra et al. [22])
//	LIA:  w_r = (1/p_r)·max_q(√(2/p_q)/rtt_q) / Σ_q 1/(rtt_q·p_q)   (Eq. 2)
//	OLIA: the best paths split max_q √(2/p_q)/rtt_q; the others carry
//	      nothing                                          (Theorem 1)
//
// The closed forms are the LIA fixed points of Appendices A and B and
// §III-C, and the "theoretical optimum with probing cost" baselines — the
// allocation an optimal window-based algorithm achieves given that every
// established path must carry at least one MSS per RTT.
//
// Conventions: the laws take and return packets (MSS) per second; the closed
// forms take capacities and return rates in Mb/s (per user, as in the
// paper's normalized plots). RTTs are in seconds, loss probabilities per
// packet, and a segment is 1500 bytes.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

// PaperRTT is the testbed round-trip time of §III, in seconds.
const PaperRTT = 0.15

// mss is the segment size in bytes.
const mss = 1500

// TCPRate returns the throughput of a regular TCP user on a path with loss
// probability p and round-trip time rtt: √(2/p)/rtt packets per second (the
// formula of Misra et al. [22] used throughout the paper).
func TCPRate(p, rtt float64) float64 {
	if p <= 0 || rtt <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2/p) / rtt
}

// LIARates returns LIA's fixed-point rate w_r/rtt_r on each path, with the
// windows w_r of the paper's Eq. (2):
//
//	w_r = (1/p_r) · max_p(√(2/p_p)/rtt_p) / Σ_p 1/(rtt_p·p_p),
//
// valid when RTTs are similar enough that LIA's min() clamp is inactive.
func LIARates(p, rtts []float64) []float64 {
	if len(p) != len(rtts) {
		panic("fixedpoint: LIARates needs matching slices")
	}
	var best, denom float64
	for i := range p {
		if r := TCPRate(p[i], rtts[i]); r > best {
			best = r
		}
		denom += 1 / (rtts[i] * p[i])
	}
	x := make([]float64, len(p))
	for i := range p {
		x[i] = best / (p[i] * denom) / rtts[i]
	}
	return x
}

// OLIARates returns the Theorem-1 equilibrium of OLIA: only the best paths
// (maximal √(2/p_r)/rtt_r) carry traffic, and the total rate equals the rate
// of a regular TCP user on the best path. The split among equally-best paths
// is not pinned down by the theorem; the uniform split returned here is what
// the α term converges to for identical paths (Fig. 7).
func OLIARates(p, rtts []float64) []float64 {
	if len(p) != len(rtts) {
		panic("fixedpoint: OLIARates needs matching slices")
	}
	rates := make([]float64, len(p))
	var best float64
	for i := range p {
		if r := TCPRate(p[i], rtts[i]); r > best {
			best = r
		}
	}
	if best == 0 || math.IsInf(best, 1) {
		return rates
	}
	var nBest int
	for i := range p {
		if TCPRate(p[i], rtts[i]) >= best*(1-1e-12) {
			nBest++
		}
	}
	for i := range p {
		if TCPRate(p[i], rtts[i]) >= best*(1-1e-12) {
			rates[i] = best / float64(nBest)
		}
	}
	return rates
}

// ProbeRate is the minimum per-path traffic of a window-based algorithm:
// one MSS per RTT, in Mb/s.
func ProbeRate(rtt float64) float64 {
	return mss * 8 / rtt / 1e6
}

// pktsPerSec converts Mb/s to packets per second.
func pktsPerSec(mbps float64) float64 {
	return mbps * 1e6 / (mss * 8)
}

// lossFor inverts TCPRate: the loss probability at which a TCP user with
// round-trip time rtt reaches the given rate in Mb/s, p = 2/(x·rtt)².
func lossFor(mbps, rtt float64) float64 {
	pk := pktsPerSec(mbps) * rtt
	return 2 / (pk * pk)
}

// bisect finds a root of f in [lo, hi] (f(lo) and f(hi) must straddle zero).
func bisect(f func(float64) float64, lo, hi float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, fmt.Errorf("fixedpoint: no sign change on [%g, %g] (f: %g, %g)", lo, hi, flo, fhi)
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if fm == 0 || (hi-lo) < 1e-14*math.Max(1, math.Abs(mid)) {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// AResult is the Scenario A (Fig. 1) allocation.
type AResult struct {
	// X1, X2 are a type1 user's rates over the private and shared paths;
	// Y is a type2 user's rate (all Mb/s).
	X1, X2, Y float64
	// Type1Norm and Type2Norm are (x1+x2)/C1 and y/C2.
	Type1Norm, Type2Norm float64
	// P1, P2 are the loss probabilities at the server link and shared AP.
	P1, P2 float64
}

// ScenarioALIA solves Appendix A's fixed point for MPTCP with LIA: z =
// √(p1/p2) is the unique positive root of z + (N1/N2)·z²/(1+2z²) = C2/C1
// (Eq. 10), from which all rates follow.
func ScenarioALIA(n1, n2, c1, c2, rtt float64) (AResult, error) {
	if n1 <= 0 || n2 <= 0 || c1 <= 0 || c2 <= 0 {
		return AResult{}, errors.New("fixedpoint: nonpositive scenario A parameters")
	}
	ratio := n1 / n2
	f := func(z float64) float64 {
		return z + ratio*z*z/(1+2*z*z) - c2/c1
	}
	z, err := bisect(f, 1e-9, 1e6)
	if err != nil {
		return AResult{}, err
	}
	p1 := lossFor(c1, rtt) // x1+x2 = C1 = √(2/p1)/rtt
	res := AResult{
		X2:        c1 * z * z / (1 + 2*z*z),
		Y:         c1 * z,
		Type1Norm: 1,
		Type2Norm: c1 * z / c2,
		P1:        p1,
		P2:        p1 / (z * z),
	}
	res.X1 = c1 - res.X2
	return res, nil
}

// ScenarioAOptimum is the theoretical optimum with probing cost for Scenario
// A (Appendix A.2): the extra path cannot help type1 users, so an optimal
// algorithm sends only the 1-MSS-per-RTT probe over the shared AP.
func ScenarioAOptimum(n1, n2, c1, c2, rtt float64) AResult {
	probe := ProbeRate(rtt)
	y := c2 - n1/n2*probe
	if y < 0 {
		y = 0
	}
	return AResult{
		X1:        c1 - probe,
		X2:        probe,
		Y:         y,
		Type1Norm: 1,
		Type2Norm: y / c2,
	}
}

// CResult is the Scenario C (Fig. 5) allocation.
type CResult struct {
	// X1, X2 are a multipath user's rates over AP1 and AP2; Y is a
	// single-path user's rate (Mb/s).
	X1, X2, Y float64
	// MultiNorm and SingleNorm are (x1+x2)/C1 and y/C2.
	MultiNorm, SingleNorm float64
	// P1, P2 are the loss probabilities at the two APs.
	P1, P2 float64
}

// ScenarioCLIA solves the §III-C fixed point for LIA. In the congested-AP1
// regime (C1/C2 < 1/(2+N1/N2)) all users receive the fair share; otherwise
// z = √(p1/p2) is the positive root of z³ + (N1/N2)z² + z = C2/C1 and
//
//	(x1+x2)/C1 = 1+z²,   y/C2 = 1 − (N1·C1)/(N2·C2)·z².
func ScenarioCLIA(n1, n2, c1, c2, rtt float64) (CResult, error) {
	if n1 <= 0 || n2 <= 0 || c1 <= 0 || c2 <= 0 {
		return CResult{}, errors.New("fixedpoint: nonpositive scenario C parameters")
	}
	if c1/c2 < 1/(2+n1/n2) {
		share := (n1*c1 + n2*c2) / (n1 + n2)
		return CResult{
			X1: c1, X2: share - c1, Y: share,
			MultiNorm: share / c1, SingleNorm: share / c2,
		}, nil
	}
	ratio := n1 / n2
	f := func(z float64) float64 {
		return z*z*z + ratio*z*z + z - c2/c1
	}
	z, err := bisect(f, 0, 1e6)
	if err != nil {
		return CResult{}, err
	}
	res := CResult{
		X1:         c1,
		X2:         c1 * z * z,
		Y:          c2 - n1/n2*c1*z*z,
		MultiNorm:  1 + z*z,
		SingleNorm: 1 - n1*c1/(n2*c2)*z*z,
	}
	// x1+x2 = √(2/p1)/rtt·... total multipath rate satisfies
	// √(2/p1)/rtt = C1(1+z²); p2 = p1/z².
	p1 := lossFor(c1*(1+z*z), rtt)
	res.P1 = p1
	res.P2 = p1 / (z * z)
	return res, nil
}

// ScenarioCOptimum is the optimum with probing cost for Scenario C: the
// proportionally fair allocation adjusted for the 1-MSS-per-RTT probe
// (dashed lines of Fig. 5(b)).
func ScenarioCOptimum(n1, n2, c1, c2, rtt float64) CResult {
	probe := ProbeRate(rtt)
	share := (n1*c1 + n2*c2) / (n1 + n2)
	multi := math.Max(c1+probe, share)
	single := math.Min(c2-n1/n2*probe, share)
	if single < 0 {
		single = 0
	}
	return CResult{
		X1: c1, X2: multi - c1, Y: single,
		MultiNorm: multi / c1, SingleNorm: single / c2,
	}
}

// BResult is the Scenario B (Figs. 3-4, Tables I-II) allocation.
type BResult struct {
	// BluePerUser and RedPerUser are x1+x2 and y1+y2 in Mb/s.
	BluePerUser, RedPerUser float64
	// BlueNorm and RedNorm are the paper's Fig. 4 normalization:
	// N(x1+x2)/CT and N(y1+y2)/CT.
	BlueNorm, RedNorm float64
	// Aggregate is N(blue+red) in Mb/s.
	Aggregate float64
	// PX, PT are the ISP bottleneck loss probabilities (LIA analysis only).
	PX, PT float64
}

// ScenarioBLIA solves Appendix B's fixed point for LIA. With Red users
// single-path the system reduces to Scenario C (Blue multipath over X and T,
// Red single-path on T). With Red upgraded to MPTCP, z = pX/pT solves the
// regime-dependent balance equation; the 5/9 boundary of the appendix
// separates the two regimes.
func ScenarioBLIA(n, cx, ct float64, redMultipath bool, rtt float64) (BResult, error) {
	if n <= 0 || cx <= 0 || ct <= 0 {
		return BResult{}, errors.New("fixedpoint: nonpositive scenario B parameters")
	}
	if !redMultipath {
		c, err := ScenarioCLIA(n, n, cx/n, ct/n, rtt)
		if err != nil {
			return BResult{}, err
		}
		return BResult{
			BluePerUser: c.X1 + c.X2,
			RedPerUser:  c.Y,
			BlueNorm:    n * (c.X1 + c.X2) / ct,
			RedNorm:     n * c.Y / ct,
			Aggregate:   n * (c.X1 + c.X2 + c.Y),
			PX:          c.P1,
			PT:          c.P2,
		}, nil
	}
	// Red multipath. Unknowns: z = pX/pT and u = √(2/pT)/rtt (Mb/s).
	// Loss-throughput (Eq. 2) gives, with m = √(max(2/pX, 2/pT))/rtt:
	//   x1 = m/(1+z), x2 = m·z/(1+z), y1 = u/(2+z), y1+y2 = u.
	// Capacity: CX/N = x1+y1, CT/N = x2+y1+y2. Dividing eliminates u.
	capRatio := func(z float64) float64 {
		if z >= 1 {
			// pX ≥ pT: best path has loss pT, m = u.
			f1 := 1/(1+z) + 1/(2+z)
			f2 := z/(1+z) + 1
			return f1 / f2
		}
		// pX < pT: m = u/√z.
		sz := math.Sqrt(z)
		f1 := 1/((1+z)*sz) + 1/(2+z)
		f2 := sz/(1+z) + 1
		return f1 / f2
	}
	target := cx / ct
	// capRatio decreases in z, crossing 5/9 at z = 1.
	f := func(z float64) float64 { return capRatio(z) - target }
	z, err := bisect(f, 1e-9, 1e9)
	if err != nil {
		return BResult{}, err
	}
	var f2 float64
	if z >= 1 {
		f2 = z/(1+z) + 1
	} else {
		f2 = math.Sqrt(z)/(1+z) + 1
	}
	u := ct / n / f2 // = √(2/pT)/rtt in Mb/s
	blue := u        // x1+x2 = m·(1/(1+z)+z/(1+z)) = m
	if z < 1 {
		blue = u / math.Sqrt(z)
	}
	red := u
	pt := lossFor(u, rtt)
	return BResult{
		BluePerUser: blue,
		RedPerUser:  red,
		BlueNorm:    n * blue / ct,
		RedNorm:     n * red / ct,
		Aggregate:   n * (blue + red),
		PX:          z * pt,
		PT:          pt,
	}, nil
}

// ScenarioBOptimum is the optimum with probing cost for Scenario B
// (Appendix B.2, Eqs. 11-14).
func ScenarioBOptimum(n, cx, ct float64, redMultipath bool, rtt float64) BResult {
	probe := ProbeRate(rtt)
	var blue, red float64
	if !redMultipath {
		// Case 1 (Eqs. 11-12).
		blue = math.Max(cx/n+probe, (ct+cx)/(2*n))
		red = math.Min(ct/n-probe, (cx+ct)/(2*n))
	} else {
		// Case 2 (Eqs. 13-14).
		blue = math.Max(cx/n, (ct+cx)/(2*n)-probe/2)
		red = math.Min(ct/n-probe, (cx+ct)/(2*n)-probe/2)
	}
	if red < 0 {
		red = 0
	}
	return BResult{
		BluePerUser: blue,
		RedPerUser:  red,
		BlueNorm:    n * blue / ct,
		RedNorm:     n * red / ct,
		Aggregate:   n * (blue + red),
	}
}
