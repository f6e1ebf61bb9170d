package scenario

import (
	"math"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// Arrivals adds identical finite flows to a running network with Poisson
// (exponential inter-arrival) spacing, the §VI-B2 short-flow workload. Each
// arrival is an independent plain-TCP connection with fresh congestion
// state, wired by AddFlow like any other flow.
type Arrivals struct {
	net     *Net
	name    string
	fs      *FlowSpec
	routes  []Route
	meanGap sim.Time
	until   sim.Time

	// Started counts the flows launched so far.
	Started int
	// Done holds the duration of every finished flow (seconds), in
	// completion order.
	Done []float64
	// Active tracks currently running flows.
	Active int
}

// AddArrivals schedules an arrival process: flows described by fs (AlgoTCP,
// FlowBytes > 0) over routes, the first at time first and the following
// ones meanGap apart on average, none after until. fs and routes are
// retained.
func (n *Net) AddArrivals(name string, fs *FlowSpec, routes []Route, meanGap, first, until sim.Time) *Arrivals {
	if fs.Algorithm != AlgoTCP || fs.FlowBytes <= 0 || meanGap <= 0 {
		panic("scenario: arrivals need finite plain-TCP flows and a positive mean gap")
	}
	g := &Arrivals{
		net: n, name: name, fs: fs, routes: routes,
		meanGap: meanGap, until: until,
	}
	n.Sim.Schedule(first, g)
	return g
}

// RunEvent launches one flow and schedules the next arrival (sim.Handler):
// the process reschedules itself through the kernel's pooled fast path.
func (g *Arrivals) RunEvent(now sim.Time) {
	f := g.net.AddFlow(g.name, g.fs, g.routes, now)
	g.Started++
	g.Active++
	//simlint:ignore hotpathalloc one callback per flow arrival, not per packet; flow setup allocates by design
	f.Srcs[0].OnComplete = func(s *tcp.Src) {
		g.Active--
		g.Done = append(g.Done, s.CompletionTime().Sec())
	}
	if next := now + g.expGap(); next <= g.until {
		g.net.Sim.Schedule(next, g)
	}
}

// expGap draws an exponential inter-arrival time with mean meanGap.
func (g *Arrivals) expGap() sim.Time {
	rng := g.net.Sim.Rand()
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	d := sim.FromNanos(-math.Log(u) * g.meanGap.Nanos())
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}
