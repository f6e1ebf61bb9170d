package core

import "math"

// This file holds the loss-throughput fixed-point formulas the paper's
// analysis rests on. Rates are in packets (MSS) per second; loss
// probabilities are per-packet; RTTs are in seconds.

// TCPRate returns the throughput of a regular TCP user on a path with loss
// probability p and round-trip time rtt: √(2/p)/rtt (the formula of Misra
// et al. [22] used throughout the paper).
func TCPRate(p, rtt float64) float64 {
	if p <= 0 || rtt <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2/p) / rtt
}

// LIAWindows implements the paper's Eq. (2): the fixed-point window of LIA
// on each path r,
//
//	w_r = (1/p_r) · max_p(√(2/p_p)/rtt_p) / Σ_p 1/(rtt_p·p_p),
//
// valid when RTTs are similar enough that LIA's min() clamp is inactive.
func LIAWindows(p, rtts []float64) []float64 {
	if len(p) != len(rtts) {
		panic("core: LIAWindows needs matching slices")
	}
	var best, denom float64
	for i := range p {
		if r := TCPRate(p[i], rtts[i]); r > best {
			best = r
		}
		denom += 1 / (rtts[i] * p[i])
	}
	w := make([]float64, len(p))
	for i := range p {
		w[i] = best / (p[i] * denom)
	}
	return w
}

// LIARates converts Eq. (2) windows into per-path rates w_r/rtt_r.
func LIARates(p, rtts []float64) []float64 {
	w := LIAWindows(p, rtts)
	for i := range w {
		w[i] /= rtts[i]
	}
	return w
}

// OLIARates returns the Theorem-1 equilibrium of OLIA: only the best paths
// (maximal √(2/p_r)/rtt_r) carry traffic, and the total rate equals the rate
// of a regular TCP user on the best path. The split among equally-best paths
// is not pinned down by the theorem; the uniform split returned here is what
// the α term converges to for identical paths (Fig. 7).
func OLIARates(p, rtts []float64) []float64 {
	if len(p) != len(rtts) {
		panic("core: OLIARates needs matching slices")
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
