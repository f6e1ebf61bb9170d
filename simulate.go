package mptcpsim

import (
	"context"
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/harness"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// Path describes one bottleneck path available to the multipath user in
// Simulate: a single congested link shared with some regular TCP flows.
type Path struct {
	// RateMbps is the bottleneck capacity in Mb/s.
	RateMbps float64
	// BackgroundTCP is the number of competing single-path TCP flows.
	BackgroundTCP int
	// DropTail selects a 100-packet drop-tail queue instead of the paper's
	// RED configuration.
	DropTail bool
}

// Scenario configures a Simulate run: one multipath user across the given
// paths, each shared with background TCP traffic. The propagation RTT is
// 80 ms as in the paper's testbed.
type Scenario struct {
	// Algorithm is one of Algorithms(); defaults to "olia".
	Algorithm string
	// Paths are the bottlenecks (at least one).
	Paths []Path
	// DurationSec is the simulated measurement time after a 2 s warm-up
	// (default 30).
	DurationSec float64
	// Seed makes the run reproducible (default 1).
	Seed int64
}

// PathReport is the per-path outcome of a Simulate run.
type PathReport struct {
	// MultipathMbps is the multipath user's goodput share on this path.
	MultipathMbps float64 `json:"multipath_mbps"`
	// BackgroundMbps is the mean goodput of one background TCP flow.
	BackgroundMbps float64 `json:"background_mbps"`
	// LossProb is the bottleneck's measured drop probability.
	LossProb float64 `json:"loss_prob"`
	// CwndPkts is the subflow's final congestion window.
	CwndPkts float64 `json:"cwnd_pkts"`
}

// Report is the outcome of a Simulate run.
type Report struct {
	// TotalMbps is the multipath user's aggregate goodput.
	TotalMbps float64 `json:"total_mbps"`
	// Paths holds per-path details, in Scenario order.
	Paths []PathReport `json:"paths"`
}

// Result converts the report into the structured result model, one row per
// path, so Simulate output can flow through the same renderers and Diff as
// the registry experiments.
func (r Report) Result() *Result {
	res := &Result{
		ID:    "simulate",
		Title: "Custom multipath-vs-TCP microbenchmark (mptcpsim.Simulate)",
		Columns: []Column{
			{Name: "path"},
			{Name: "multipath", Unit: "Mb/s"}, {Name: "background", Unit: "Mb/s"},
			{Name: "loss_prob"}, {Name: "cwnd", Unit: "pkts"},
		},
		Footer: []string{fmt.Sprintf("total %.2f Mb/s", r.TotalMbps)},
	}
	for i, p := range r.Paths {
		res.Rows = append(res.Rows, []Cell{
			harness.IntCell(i + 1),
			harness.NumCell(p.MultipathMbps), harness.NumCell(p.BackgroundMbps),
			harness.NumCell(p.LossProb), harness.NumCell(p.CwndPkts),
		})
	}
	return res
}

// simulateOneWayDelay mirrors the paper's 80 ms propagation RTT, carried on
// the bottleneck links themselves (the paths use no access pipe, exactly
// like the hand-wired rig this spec replaced).
const simulateOneWayDelayMs = 40

// simulateSpec expresses the Simulate rig as a declarative scenario. The
// element order reproduces the retired builder.go topology exactly — per
// path one 40 ms link, that path's background TCP flows staggered 50 ms
// apart (IDs 100·path+b, starts inserted in (path, flow) order), and the
// multipath user last, starting at 500 ms — so scenario.Compile consumes
// the seed's random stream identically and the run is byte-for-byte the
// one the hand-built rig produced (locked by testdata/simulate goldens).
func simulateSpec(sc Scenario, algo string, dur float64, seed int64) *scenario.Spec {
	sp := &scenario.Spec{
		Name:        "simulate",
		Seed:        seed,
		WarmupSec:   2,
		DurationSec: dur,
	}
	for i, p := range sc.Paths {
		link := scenario.LinkSpec{RateMbps: p.RateMbps, DelayMs: simulateOneWayDelayMs}
		if p.DropTail {
			link.Queue = scenario.QueueDropTail
		}
		sp.Links = append(sp.Links, link)
		sp.Paths = append(sp.Paths, scenario.PathSpec{Links: []int{i}})
		for b := 0; b < p.BackgroundTCP; b++ {
			sp.Flows = append(sp.Flows, scenario.FlowSpec{
				Name:      fmt.Sprintf("bg%d.%d", i, b),
				Algorithm: scenario.AlgoTCP,
				Paths:     []int{i},
				StartSec:  float64(b) * 0.05,
				BaseID:    100*i + b,
			})
		}
	}
	mp := scenario.FlowSpec{
		Name:      "user",
		Algorithm: algo,
		StartSec:  0.5,
		BaseID:    1000,
	}
	for i := range sc.Paths {
		mp.Paths = append(mp.Paths, i)
	}
	sp.Flows = append(sp.Flows, mp)
	return sp
}

// Simulate runs a multipath user against background TCP flows over custom
// bottleneck paths and reports the goodput split — the programmatic
// equivalent of the paper's Fig. 6 microbenchmarks. The rig is compiled
// from a declarative scenario spec (simulateSpec) and run under the
// scenario invariant checks; cancelling ctx abandons the run at a
// one-second virtual-time boundary with an ErrCanceled error.
func (l *Lab) Simulate(ctx context.Context, sc Scenario) (Report, error) {
	const op = "simulate"
	badSpec := func(format string, args ...any) (Report, error) {
		return Report{}, apiErr(op, "", ErrInvalidSpec, fmt.Errorf(format, args...))
	}
	if len(sc.Paths) == 0 {
		return badSpec("scenario needs at least one path")
	}
	algo := sc.Algorithm
	if algo == "" {
		algo = "olia"
	}
	if !core.Known(algo) {
		return badSpec("unknown algorithm %q (have %v)", algo, Algorithms())
	}
	for i, p := range sc.Paths {
		if p.RateMbps <= 0 {
			return badSpec("path %d rate must be positive, got %g Mb/s", i, p.RateMbps)
		}
		if p.BackgroundTCP < 0 {
			return badSpec("path %d has negative background flow count %d", i, p.BackgroundTCP)
		}
	}
	dur := sc.DurationSec
	if dur == 0 {
		dur = 30
	}
	if dur < 0 {
		return badSpec("negative duration %g", dur)
	}
	seed := sc.Seed
	if seed < 0 {
		return badSpec("negative seed %d", seed)
	}
	if seed == 0 {
		seed = 1
	}

	sp := simulateSpec(sc, algo, dur, seed)
	n, err := scenario.Compile(sp)
	if err != nil {
		// The inputs were validated above; a compile failure is a bug.
		return Report{}, apiErr(op, "", ErrInvalidSpec, err)
	}

	// The multipath user is the last flow group; background group b of
	// path i sits at listing position prefix(i)+b.
	user := n.Flows[len(n.Flows)-1]
	bgGroup := make([][]*scenario.Flow, len(sc.Paths))
	pos := 0
	for i, p := range sc.Paths {
		bgGroup[i] = n.Flows[pos : pos+p.BackgroundTCP]
		pos += p.BackgroundTCP
	}

	run, err := n.Run(ctx)
	if err != nil {
		return Report{}, apiErr(op, "", ErrCanceled, err)
	}
	if len(run.Violations) != 0 {
		// The numbers of a run that broke an invariant are not to be trusted.
		return Report{}, apiErr(op, "", nil, fmt.Errorf("invariant violations: %v", run.Violations))
	}

	var rep Report
	for i := range sc.Paths {
		pr := PathReport{
			MultipathMbps: stats.Mbps(user.Window[i], dur),
			LossProb:      run.Queues[i].Window.LossProb(),
			CwndPkts:      user.Conn.CwndPkts(i),
		}
		if nBG := len(bgGroup[i]); nBG > 0 {
			pr.BackgroundMbps = stats.Mbps(scenario.GroupWindowBytes(bgGroup[i]), dur) / float64(nBG)
		}
		rep.TotalMbps += pr.MultipathMbps
		rep.Paths = append(rep.Paths, pr)
	}
	return rep, nil
}
