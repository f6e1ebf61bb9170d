package scenario

import (
	"fmt"

	"mptcpsim/internal/fluid"
	"mptcpsim/internal/netem"
)

// The fluid links' loss curve: P0 is the drop probability at exactly full
// load and Sharpness how fast it rises beyond — the "sharp around
// capacity" regime of the paper's Remark 1, mirroring RED pushed past its
// thresholds.
const (
	fluidP0        = 0.02
	fluidSharpness = 12
)

// testbedQueueMs is the RED queueing delay a fluid route adds to its
// propagation RTT: the paper measures ≈150 ms against the testbed's 80 ms
// propagation RTT (§III). RED thresholds scale with link rate, so the
// delay is the same on every path whatever its capacity. It is charged
// once per route, not per link: the closed forms a two-bottleneck route is
// checked against use one RTT for every route.
const testbedQueueMs = 70

// Fluid compiles a Spec to the paper's §V fluid model over the same
// network, so the packet simulator and the fluid equilibrium solve one
// description:
//   - link ℓ becomes fluid link ℓ, of capacity RateMbps in MSS packets per
//     second, on the fixed loss curve above;
//   - each replica of each FlowSpec becomes a user, in flow order, so user
//     u is RunReport.Flows[u], and its route r is FlowSpec.Paths[r] (the
//     route shares the path's Links slice);
//   - a route's RTT is its access delay, its links' delays, the delay of
//     its return — its Rev links' delays, or the shared reverse delay
//     without them — and testbedQueueMs, summed in milliseconds: every
//     testbed route is fixedpoint.PaperRTT;
//   - the dynamics are those of the one algorithm every multipath group
//     shares. A plain TCP user has one route and behaves as TCP under any
//     dynamics, so an all-TCP Spec compiles as uncoupled.
//
// A Spec that fails Validate returns its error. So does one the
// steady-state model does not describe, naming the field: a drop-tail
// queue, random loss, a timeline, a finite, stopped or window-capped flow,
// two multipath algorithms, or one with no fluid dynamics (fullycoupled).
func Fluid(sp *Spec) (*fluid.Model, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if len(sp.Timeline) > 0 {
		return nil, fmt.Errorf("scenario %q: fluid model is static, Timeline has %d events", sp.Name, len(sp.Timeline))
	}
	net := &fluid.Network{}
	for i, l := range sp.Links {
		switch {
		case l.Queue == QueueDropTail:
			return nil, fmt.Errorf("scenario %q: link %d: fluid model has no %s Queue", sp.Name, i, l.Queue)
		case l.LossPct > 0:
			return nil, fmt.Errorf("scenario %q: link %d: fluid model has no random loss, LossPct %g", sp.Name, i, l.LossPct)
		}
		net.Links = append(net.Links, fluid.Link{
			Capacity:  l.RateMbps * 1e6 / (8 * netem.MSS),
			P0:        fluidP0,
			Sharpness: fluidSharpness,
		})
	}
	revMs := sp.ReverseDelayMs
	if revMs == 0 {
		revMs = defaultReverseDelayMs
	}
	algo := ""
	for i, f := range sp.Flows {
		switch {
		case f.FlowBytes > 0:
			return nil, fmt.Errorf("scenario %q: flow %d: fluid model has long-lived flows only, FlowBytes %d", sp.Name, i, f.FlowBytes)
		case f.StopSec > 0:
			return nil, fmt.Errorf("scenario %q: flow %d: fluid model has no StopSec", sp.Name, i)
		case f.MaxCwndPkts > 0:
			return nil, fmt.Errorf("scenario %q: flow %d: fluid model has no window cap, MaxCwndPkts %g", sp.Name, i, f.MaxCwndPkts)
		case f.Algorithm == AlgoTCP:
		case algo == "":
			algo = f.Algorithm
		case f.Algorithm != algo:
			return nil, fmt.Errorf("scenario %q: flow %d: Algorithm %q after %q: the fluid model runs one multipath algorithm", sp.Name, i, f.Algorithm, algo)
		}
		routes := make([]fluid.Route, len(f.Paths))
		for r, pi := range f.Paths {
			p := sp.Paths[pi]
			ms := p.DelayMs
			for _, l := range p.Links {
				ms += sp.Links[l].DelayMs
			}
			back := revMs
			if p.Rev != nil {
				back = 0
				for _, l := range p.Rev {
					back += sp.Links[l].DelayMs
				}
			}
			ms += back + testbedQueueMs
			routes[r] = fluid.Route{Links: p.Links, RTT: ms / 1e3}
		}
		for range f.count() {
			net.Users = append(net.Users, fluid.User{Routes: routes})
		}
	}
	if algo == "" {
		algo = "uncoupled"
	}
	dyn, err := fluid.ParseAlgo(algo)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: Algorithm: %w", sp.Name, err)
	}
	return fluid.NewModel(net, dyn), nil
}
