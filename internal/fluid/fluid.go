// Package fluid implements the paper's §V fluid model of multipath
// congestion control as a system of differential equations / inclusions:
//
//	dx_r/dt = x_r²·( (1/rtt_r²)/(Σ_p x_p)² − p_r/2 ) + α̅_r/rtt_r²   (Eq. 8)
//
// for OLIA, and the analogous dynamics for LIA and per-path TCP. Loss rates
// p_ℓ are increasing functions of the link load; route loss is the sum of
// link losses (small, independent losses, §V-A).
//
// The discontinuous α of Eq. 6 is handled as in the differential inclusion
// (Eq. 9): arg-max sets are computed with a small relative tolerance and α
// mass is split uniformly inside them, which corresponds to picking one
// measurable selection of the inclusion.
//
// The package exists to verify the paper's theory numerically: Theorem 1
// (fixed points use only best paths and match the best-path TCP rate),
// Theorem 3 (Pareto optimality via the V* utility), and Theorem 4
// (V(x(t)) is nondecreasing under equal RTTs).
package fluid

import (
	"fmt"
	"math"
)

// Link is a congestible resource. Its loss probability is
//
//	p(y) = min(1, P0·(y/C)^Sharpness),
//
// an increasing, differentiable congestion curve: p(C) = P0 at capacity and
// sharply rising beyond (the "sharp around C_ℓ" regime of Remark 1 as
// Sharpness grows).
type Link struct {
	Capacity  float64 // pkts/s
	P0        float64 // loss probability at exactly full load
	Sharpness float64 // exponent; larger = sharper knee
}

// Loss evaluates p(y).
func (l Link) Loss(y float64) float64 {
	if y <= 0 {
		return 0
	}
	p := l.P0 * math.Pow(y/l.Capacity, l.Sharpness)
	if p > 1 {
		return 1
	}
	return p
}

// CongestionIntegral evaluates ∫₀^y p(s) ds, the per-link term of the
// congestion cost C(x) in Theorem 3.
func (l Link) CongestionIntegral(y float64) float64 {
	if y <= 0 {
		return 0
	}
	// ∫ P0 (s/C)^B ds = P0·C/(B+1)·(y/C)^(B+1), valid while p < 1. Beyond
	// the p=1 point integrate linearly.
	yCap := l.Capacity * math.Pow(1/l.P0, 1/l.Sharpness) // p(yCap) = 1
	if y <= yCap {
		return l.P0 * l.Capacity / (l.Sharpness + 1) * math.Pow(y/l.Capacity, l.Sharpness+1)
	}
	base := l.P0 * l.Capacity / (l.Sharpness + 1) * math.Pow(yCap/l.Capacity, l.Sharpness+1)
	return base + (y - yCap)
}

// Route is one path of one user: the links it crosses and its RTT.
type Route struct {
	Links []int
	RTT   float64
}

// User owns a set of routes coupled by one algorithm.
type User struct {
	Routes []Route
}

// Network is the fluid topology.
type Network struct {
	Links []Link
	Users []User
}

// Algo selects the congestion-control dynamics.
type Algo int

const (
	// OLIA follows Eq. 8 with the α̅ selection of Eq. 9.
	OLIA Algo = iota
	// LIA follows the fluid limit of Eq. 1.
	LIA
	// Uncoupled runs independent TCP dynamics per route.
	Uncoupled
)

// ParseAlgo maps a packet-level controller name to its fluid dynamics.
// Single-route users behave identically under every Algo (each reduces to
// per-path TCP), so only the multipath coupling needs to match.
func ParseAlgo(name string) (Algo, error) {
	switch name {
	case "olia":
		return OLIA, nil
	case "lia":
		return LIA, nil
	case "uncoupled":
		return Uncoupled, nil
	default:
		return 0, fmt.Errorf("fluid: no dynamics for algorithm %q", name)
	}
}

// Model couples a network with algorithm dynamics over the flattened route
// vector x (pkts/s). Routes are indexed user-major in declaration order.
type Model struct {
	Net  *Network
	Algo Algo

	// offsets[u] is the index of user u's first route in x.
	offsets []int
	nRoutes int
}

// NewModel validates the network and prepares indexing.
func NewModel(net *Network, algo Algo) *Model {
	m := &Model{Net: net, Algo: algo}
	for u, user := range net.Users {
		if len(user.Routes) == 0 {
			panic(fmt.Sprintf("fluid: user %d has no routes", u))
		}
		m.offsets = append(m.offsets, m.nRoutes)
		for r, route := range user.Routes {
			if route.RTT <= 0 {
				panic(fmt.Sprintf("fluid: user %d route %d has bad RTT", u, r))
			}
			for _, l := range route.Links {
				if l < 0 || l >= len(net.Links) {
					panic(fmt.Sprintf("fluid: user %d route %d references link %d", u, r, l))
				}
			}
		}
		m.nRoutes += len(user.Routes)
	}
	return m
}

// NumRoutes reports the dimension of the state vector.
func (m *Model) NumRoutes() int { return m.nRoutes }

// Index returns the flat index of user u's route r.
func (m *Model) Index(u, r int) int { return m.offsets[u] + r }

// probeFloor is the minimum rate of a route with the given RTT: the
// 1-MSS-per-RTT probing traffic of a window-based implementation.
func probeFloor(rtt float64) float64 { return 1 / rtt }

// linkLoads accumulates per-link total load for state x.
func (m *Model) linkLoads(x []float64) []float64 {
	loads := make([]float64, len(m.Net.Links))
	for u, user := range m.Net.Users {
		for r, route := range user.Routes {
			xr := x[m.Index(u, r)]
			for _, l := range route.Links {
				loads[l] += xr
			}
		}
	}
	return loads
}

// routeLoss returns p_r = Σ_{ℓ∈r} p_ℓ for precomputed link losses.
func routeLoss(route Route, linkLoss []float64) float64 {
	var p float64
	for _, l := range route.Links {
		p += linkLoss[l]
	}
	return p
}

// relTol is the arg-max set tolerance of the inclusion selection.
const relTol = 0.02

// Derivative evaluates dx/dt into dx.
func (m *Model) Derivative(x, dx []float64) {
	loads := m.linkLoads(x)
	linkLoss := make([]float64, len(loads))
	for i, l := range m.Net.Links {
		linkLoss[i] = l.Loss(loads[i])
	}
	for u, user := range m.Net.Users {
		n := len(user.Routes)
		base := m.offsets[u]
		var sumX float64
		for r := 0; r < n; r++ {
			sumX += x[base+r]
		}
		switch m.Algo {
		case OLIA:
			alphas := m.oliaAlphas(user, x[base:base+n], linkLoss)
			for r, route := range user.Routes {
				xr := x[base+r]
				pr := routeLoss(route, linkLoss)
				dx[base+r] = xr*xr*(1/(route.RTT*route.RTT)/(sumX*sumX)-pr/2) +
					alphas[r]/(route.RTT*route.RTT)
			}
		case LIA:
			var maxTerm float64 // max_p x_p/rtt_p
			for r, route := range user.Routes {
				if t := x[base+r] / route.RTT; t > maxTerm {
					maxTerm = t
				}
			}
			for r, route := range user.Routes {
				xr := x[base+r]
				pr := routeLoss(route, linkLoss)
				inc := maxTerm / (sumX * sumX)
				if reno := 1 / (xr * route.RTT); reno < inc {
					inc = reno
				}
				dx[base+r] = xr/route.RTT*inc - pr*xr*xr/2
			}
		case Uncoupled:
			for r, route := range user.Routes {
				xr := x[base+r]
				pr := routeLoss(route, linkLoss)
				dx[base+r] = 1/(route.RTT*route.RTT) - pr*xr*xr/2
			}
		}
	}
}

// oliaAlphas evaluates the Eq. 9 selection for one user: ℓ_r ≈ 1/p_r, best
// set B maximizes 1/(p_r·rtt_r²), max-window set M maximizes w_r = x_r·rtt_r.
func (m *Model) oliaAlphas(user User, x []float64, linkLoss []float64) []float64 {
	n := len(user.Routes)
	alphas := make([]float64, n)
	if n == 1 {
		return alphas
	}
	metric := make([]float64, n)
	wnd := make([]float64, n)
	var bestMax, wndMax float64
	for r, route := range user.Routes {
		pr := routeLoss(route, linkLoss)
		if pr <= 0 {
			pr = 1e-12
		}
		metric[r] = 1 / (pr * route.RTT * route.RTT)
		wnd[r] = x[r] * route.RTT
		if metric[r] > bestMax {
			bestMax = metric[r]
		}
		if wnd[r] > wndMax {
			wndMax = wnd[r]
		}
	}
	inB := func(r int) bool { return metric[r] >= bestMax*(1-relTol) }
	inM := func(r int) bool { return wnd[r] >= wndMax*(1-relTol) }
	nM, nBnotM := 0, 0
	for r := 0; r < n; r++ {
		if inM(r) {
			nM++
		} else if inB(r) {
			nBnotM++
		}
	}
	if nBnotM == 0 {
		return alphas
	}
	for r := 0; r < n; r++ {
		switch {
		case inB(r) && !inM(r):
			alphas[r] = 1 / float64(n) / float64(nBnotM)
		case inM(r):
			alphas[r] = -1 / float64(n) / float64(nM)
		}
	}
	return alphas
}

// Integrate advances the state with classic RK4 at step dt for steps steps,
// flooring each rate at the probing minimum. x is modified in place and
// returned.
func (m *Model) Integrate(x []float64, dt float64, steps int) []float64 {
	if len(x) != m.nRoutes {
		panic("fluid: state dimension mismatch")
	}
	k1 := make([]float64, m.nRoutes)
	k2 := make([]float64, m.nRoutes)
	k3 := make([]float64, m.nRoutes)
	k4 := make([]float64, m.nRoutes)
	tmp := make([]float64, m.nRoutes)
	for s := 0; s < steps; s++ {
		m.Derivative(x, k1)
		for i := range tmp {
			tmp[i] = x[i] + dt/2*k1[i]
		}
		m.clamp(tmp)
		m.Derivative(tmp, k2)
		for i := range tmp {
			tmp[i] = x[i] + dt/2*k2[i]
		}
		m.clamp(tmp)
		m.Derivative(tmp, k3)
		for i := range tmp {
			tmp[i] = x[i] + dt*k3[i]
		}
		m.clamp(tmp)
		m.Derivative(tmp, k4)
		for i := range x {
			x[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		m.clamp(x)
	}
	return x
}

// clamp floors route rates at the probing minimum.
func (m *Model) clamp(x []float64) {
	for u, user := range m.Net.Users {
		for r, route := range user.Routes {
			i := m.Index(u, r)
			if floor := probeFloor(route.RTT); x[i] < floor {
				x[i] = floor
			}
		}
	}
}

// InitialState returns a uniform starting point: every route at twice its
// probing floor.
func (m *Model) InitialState() []float64 {
	x := make([]float64, m.nRoutes)
	for u, user := range m.Net.Users {
		for r, route := range user.Routes {
			x[m.Index(u, r)] = 2 * probeFloor(route.RTT)
		}
	}
	return x
}

// Equilibrium's RK4 step (seconds), its bound on the largest relative
// derivative, and its step budget.
const (
	eqStep     = 0.002
	eqTol      = 1e-4
	eqMaxSteps = 400_000
)

// Equilibrium integrates from InitialState until every route's relative
// derivative falls below eqTol or eqMaxSteps elapse; it reports the final
// state and whether it converged.
func (m *Model) Equilibrium() ([]float64, bool) {
	x := m.InitialState()
	dx := make([]float64, m.nRoutes)
	for s := 0; s < eqMaxSteps; s += 50 {
		m.Integrate(x, eqStep, 50)
		m.Derivative(x, dx)
		var worst float64
		for i := range x {
			rel := math.Abs(dx[i]) / math.Max(x[i], 1e-9)
			// Routes pinned at the probing floor with negative drift are at
			// their boundary equilibrium.
			if x[i] <= m.floorOf(i)*1.0001 && dx[i] < 0 {
				rel = 0
			}
			if rel > worst {
				worst = rel
			}
		}
		if worst < eqTol {
			return x, true
		}
	}
	return x, false
}

// floorOf returns the probing floor of flat route index i.
func (m *Model) floorOf(i int) float64 {
	for u, user := range m.Net.Users {
		base := m.offsets[u]
		if i >= base && i < base+len(user.Routes) {
			return probeFloor(user.Routes[i-base].RTT)
		}
	}
	return 0
}

// Utility evaluates V*(x) from the proof of Theorem 3 with τ_u = rtt_u
// (equal-RTT case of Theorem 4):
//
//	V(x) = Σ_u −1/(rtt_u²·Σ_r x_r)  −  ½·Σ_ℓ ∫₀^{y_ℓ} p_ℓ(s) ds.
func (m *Model) Utility(x []float64) float64 {
	var v float64
	for u, user := range m.Net.Users {
		var sum float64
		for r := range user.Routes {
			sum += x[m.Index(u, r)]
		}
		rtt := user.Routes[0].RTT
		v -= 1 / (rtt * rtt * sum)
	}
	loads := m.linkLoads(x)
	for i, l := range m.Net.Links {
		v -= 0.5 * l.CongestionIntegral(loads[i])
	}
	return v
}

// CongestionCost evaluates C(x) = Σ_ℓ ∫₀^{y_ℓ} p_ℓ, the Theorem 3 cost.
func (m *Model) CongestionCost(x []float64) float64 {
	loads := m.linkLoads(x)
	var c float64
	for i, l := range m.Net.Links {
		c += l.CongestionIntegral(loads[i])
	}
	return c
}

// UserRate sums user u's route rates.
func (m *Model) UserRate(x []float64, u int) float64 {
	var sum float64
	for r := range m.Net.Users[u].Routes {
		sum += x[m.Index(u, r)]
	}
	return sum
}

// UserShares returns user u's per-route rate fractions (summing to 1), the
// quantity the packet-level conformance oracle compares against measured
// per-path goodput shares.
func (m *Model) UserShares(x []float64, u int) []float64 {
	routes := m.Net.Users[u].Routes
	out := make([]float64, len(routes))
	total := m.UserRate(x, u)
	if total <= 0 {
		return out
	}
	for r := range routes {
		out[r] = x[m.Index(u, r)] / total
	}
	return out
}
