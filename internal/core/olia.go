package core

import "math"

// OLIA is the Opportunistic Linked-Increases Algorithm (§IV of the paper).
//
// For each ACK on path r the window w_r (packets) increases by
//
//	w_r/rtt_r²
//	────────────────────  +  α_r / w_r            (Eq. 5)
//	(Σ_p w_p/rtt_p)²
//
// where α_r redistributes growth toward "best" paths that are not yet fully
// used (Eq. 6):
//
//	α_r =  (1/|Ru|) / |B \ M|    if r ∈ B \ M ≠ ∅
//	α_r = -(1/|Ru|) / |M|        if r ∈ M and B \ M ≠ ∅
//	α_r =  0                     otherwise,
//
// with M the set of paths with the largest window and B the set of
// presumably-best paths: those maximizing ℓ_p/rtt_p², where ℓ_p is the
// larger of the bytes acked between the last two losses (ℓ1) and the bytes
// acked since the last loss (ℓ2) — 1/ℓ_p estimates the loss probability.
//
// The first term is an RTT-compensated, TCP-friendly adaptation of Kelly
// and Voice's increase and provides Pareto optimality; the α term provides
// responsiveness and non-flappiness. For each loss the sender halves w_r,
// exactly as regular TCP (enforced by tcp.Src).
type OLIA struct {
	// ℓ1, ℓ2 in bytes, indexed by subflow; grown on demand.
	l1, l2 []float64
	// alpha caches the last α vector, for traces (Figs. 7 and 8).
	alpha []float64
	// wnd and metric are computeAlpha's per-ACK scratch (rounded windows
	// and ℓ_p/rtt_p²), kept here so the per-ACK path allocates nothing.
	wnd, metric []float64
}

// NewOLIA returns a fresh controller (per connection).
func NewOLIA() *OLIA { return &OLIA{} }

// Name implements Controller.
func (*OLIA) Name() string { return "olia" }

// ensure sizes the per-subflow state.
func (o *OLIA) ensure(n int) {
	for len(o.l1) < n {
		o.l1 = append(o.l1, 0)
		o.l2 = append(o.l2, 0)
		o.alpha = append(o.alpha, 0)
		o.wnd = append(o.wnd, 0)
		o.metric = append(o.metric, 0)
	}
}

// ell returns ℓ_i = max(ℓ1_i, ℓ2_i) in bytes.
func (o *OLIA) ell(i int) float64 {
	if o.l1[i] > o.l2[i] {
		return o.l1[i]
	}
	return o.l2[i]
}

// Ell exposes ℓ_i for traces and tests (bytes).
func (o *OLIA) Ell(i int) float64 {
	o.ensure(i + 1)
	return o.ell(i)
}

// Alpha exposes the α_r computed by the most recent Acked call on any path
// (per Eq. 6; the full vector is recomputed on every ACK).
func (o *OLIA) Alpha(i int) float64 {
	o.ensure(i + 1)
	return o.alpha[i]
}

// Acked implements Controller: updates ℓ2 and returns the Eq. 5 increase.
func (o *OLIA) Acked(v ConnView, i int, n int, inCA bool) float64 {
	o.ensure(v.NumFlows())
	o.l2[i] += float64(n)
	if !inCA {
		return 0
	}
	w := v.CwndPkts(i)
	if w <= 0 {
		return 0
	}
	o.computeAlpha(v)
	denom := sumWOverRTT(v)
	if denom <= 0 {
		return float64(n) / float64(v.MSS()) / w
	}
	ri := rtt(v, i)
	inc := w/(ri*ri)/(denom*denom) + o.alpha[i]/w
	return float64(n) / float64(v.MSS()) * inc
}

// Lost implements Controller: ℓ1 ← ℓ2, ℓ2 ← 0 (§IV-B).
func (o *OLIA) Lost(v ConnView, i int) {
	o.ensure(v.NumFlows())
	o.l1[i] = o.l2[i]
	o.l2[i] = 0
}

// bTol is the relative tolerance for membership in the best-path set B. The
// Linux implementation compares the ℓ/rtt² metrics exactly (64-bit fixed
// point), so B is effectively the exact arg-max; a tiny tolerance only
// absorbs float rounding.
const bTol = 1e-9

// computeAlpha fills o.alpha per Eq. 6 for the current state.
//
// Window comparisons are made on integer packet counts, as in the Linux
// implementation (tcp_olia compares snd_cwnd values). With float windows an
// exact comparison would never tie, so the connection would perpetually see
// B\M ≠ ∅ at the symmetric equilibrium and keep draining its largest
// window — visible as lost throughput in the data-center experiments.
func (o *OLIA) computeAlpha(v ConnView) {
	nf := v.NumFlows()
	// M: paths with maximum window (integer packets).
	var wMax float64
	wnd, metric := o.wnd[:nf], o.metric[:nf]
	for p := 0; p < nf; p++ {
		wnd[p] = math.Floor(v.CwndPkts(p) + 0.5)
		if wnd[p] > wMax {
			wMax = wnd[p]
		}
	}
	// B: paths maximizing ℓ_p/rtt_p². A path that never transmitted
	// (ℓ = 0) cannot be best.
	var bMax float64
	for p := 0; p < nf; p++ {
		r := rtt(v, p)
		metric[p] = o.ell(p) / (r * r)
		if metric[p] > bMax {
			bMax = metric[p]
		}
	}
	// bMin is the membership threshold of B; with bMax = 0 no path is best.
	bMin := math.Inf(1)
	if bMax > 0 {
		bMin = bMax * (1 - bTol)
	}

	nM, nBnotM := 0, 0
	for p := 0; p < nf; p++ {
		if wnd[p] >= wMax {
			nM++
		} else if metric[p] >= bMin {
			nBnotM++
		}
	}
	for p := 0; p < nf; p++ {
		switch {
		case nBnotM == 0:
			// All best paths already have the largest windows: the
			// capacity available to the user is already in use.
			o.alpha[p] = 0
		case wnd[p] >= wMax:
			o.alpha[p] = -1 / float64(nf) / float64(nM)
		case metric[p] >= bMin:
			o.alpha[p] = 1 / float64(nf) / float64(nBnotM)
		default:
			o.alpha[p] = 0
		}
	}
}
