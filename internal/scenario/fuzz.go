package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/sim"
)

// FuzzOptions scales a fuzzing campaign.
type FuzzOptions struct {
	// N is the number of scenarios to generate and run (0 selects 200).
	N int
	// Seed anchors the deterministic generator chain: scenario i is built
	// from an RNG seeded with Seed and i alone, so a campaign is
	// reproducible and any failure can be replayed by index. Every value,
	// 0 included, is a seed.
	Seed int64
}

// Validate rejects a negative campaign size.
func (o FuzzOptions) Validate() error {
	if o.N < 0 {
		return fmt.Errorf("scenario: negative fuzz campaign size %d", o.N)
	}
	return nil
}

func (o FuzzOptions) fill() FuzzOptions {
	if o.N == 0 {
		o.N = 200
	}
	return o
}

// FuzzFailure records one scenario that violated an invariant.
type FuzzFailure struct {
	// Index replays the scenario: GenSpec(Seed, Index) rebuilds it.
	Index      int      `json:"index"`
	Name       string   `json:"name"`
	Violations []string `json:"violations"`
}

// FuzzReport summarizes a campaign.
type FuzzReport struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
	// Events counts kernel events processed across all scenarios.
	Events uint64 `json:"events"`
	// Flows and Links count the generated population, a coverage signal.
	Flows    int           `json:"flows"`
	Links    int           `json:"links"`
	Failures []FuzzFailure `json:"failures,omitempty"`
}

// Failed reports whether any scenario broke an invariant.
func (r *FuzzReport) Failed() bool { return len(r.Failures) > 0 }

// Fuzz generates opts.N scenarios (opts must pass Validate) and runs each
// one twice: once checking the runtime and post-run invariants (see Run),
// and a second time to verify the run is byte-identical — same event
// count, same per-flow byte counts, same queue counters — under the same
// seed. Scenarios run on one runner.Stream of workers (<= 0 selects
// GOMAXPROCS) and are folded into the report in index order as they
// arrive; scenario i's outcome never depends on scheduling. progress, when
// non-nil, receives the cumulative (done, total) scenario counts — (0, N)
// first, then one call per scenario folded — on the goroutine that called
// Fuzz.
//
// Cancelling ctx stops unstarted scenarios at the next job boundary and
// returns an error wrapping ctx.Err(); the partial campaign is discarded.
func Fuzz(ctx context.Context, opts FuzzOptions, workers int, progress func(done, total int)) (*FuzzReport, error) {
	opts = opts.fill()
	rep := &FuzzReport{N: opts.N, Seed: opts.Seed}
	type outcome struct {
		events       uint64
		flows, links int
		failure      *FuzzFailure
	}
	if progress == nil {
		progress = func(int, int) {}
	}
	progress(0, opts.N)
	err := runner.Stream(ctx, runner.New(workers), opts.N, func(i int) outcome {
		sp := GenSpec(opts.Seed, i)
		var out outcome
		out.links = len(sp.Links)
		r1, err := Run(ctx, sp)
		if err != nil {
			if ctx.Err() != nil {
				return out // cancelled mid-run: not an invariant failure
			}
			// Generated specs always validate; an error here is itself an
			// invariant failure.
			out.failure = &FuzzFailure{Index: i, Name: sp.Name,
				Violations: []string{fmt.Sprintf("run failed: %v", err)}}
			return out
		}
		out.events = r1.Processed
		out.flows = len(r1.Flows)
		violations := r1.Violations
		r2, err := Run(ctx, sp)
		switch {
		case err != nil && ctx.Err() != nil:
			// cancelled mid-re-run: not an invariant failure
		case err != nil:
			violations = append(violations, fmt.Sprintf("re-run failed: %v", err))
		case r1.Digest() != r2.Digest():
			violations = append(violations, fmt.Sprintf(
				"re-run not identical: %+v vs %+v", r1.Digest(), r2.Digest()))
		}
		if len(violations) > 0 {
			out.failure = &FuzzFailure{Index: i, Name: sp.Name, Violations: violations}
		}
		return out
	}, func(i int, out outcome) {
		rep.Events += out.events
		rep.Flows += out.flows
		rep.Links += out.links
		if out.failure != nil {
			rep.Failures = append(rep.Failures, *out.failure)
		}
		progress(i+1, opts.N)
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: fuzz campaign canceled: %w", err)
	}
	return rep, nil
}

// algorithm choices the generator draws from; plain TCP is drawn more
// often so multipath flows always face single-path competition somewhere.
var fuzzAlgos = []string{"olia", "lia", "uncoupled", "fullycoupled", AlgoTCP, AlgoTCP}

// scheduler choices for finite multipath transfers; the empty string keeps
// the legacy per-subflow FlowBytes split in the mix.
var fuzzSchedulers = []string{"", "pull", "minrtt", "roundrobin", "ecf", "redundant"}

// GenSpec deterministically builds fuzz scenario index under the campaign
// seed: 1-4 links of varied rate/delay/discipline (some with random loss),
// 1-4 paths crossing one or two links each, 1-4 flow groups mixing coupled
// multipath algorithms with plain TCP, long-lived and finite workloads,
// jittered and fixed starts, and mid-run stops — plus a fault timeline of
// 1-5 mid-run mutations (setpoints, blackholes, path flaps).
func GenSpec(seed int64, index int) *Spec {
	rng := sim.NewRand(seed + int64(index)*1_000_003)
	sp := &Spec{
		Name:        fmt.Sprintf("fuzz-%d", index),
		Seed:        rng.Int63(),
		WarmupSec:   0.4 + 0.4*rng.Float64(),
		DurationSec: 1 + 1.5*rng.Float64(),
	}

	nLinks := 1 + rng.Intn(4)
	for i := 0; i < nLinks; i++ {
		l := LinkSpec{
			// Log-uniform in roughly [0.5, 11] Mb/s.
			RateMbps: 0.5 * math.Pow(2, 4.5*rng.Float64()),
			DelayMs:  1 + 30*rng.Float64(),
		}
		if rng.Intn(5) < 2 {
			l.Queue = QueueDropTail
			l.BufferPkts = 20 + rng.Intn(180)
		}
		if rng.Intn(100) < 15 {
			l.LossPct = 0.05 + 0.95*rng.Float64()
		}
		sp.Links = append(sp.Links, l)
	}

	nPaths := 1 + rng.Intn(4)
	for i := 0; i < nPaths; i++ {
		p := PathSpec{Links: []int{rng.Intn(nLinks)}, DelayMs: 5 + 35*rng.Float64()}
		if nLinks > 1 && rng.Intn(10) < 3 {
			// Two-bottleneck path over a second, distinct link.
			second := rng.Intn(nLinks - 1)
			if second >= p.Links[0] {
				second++
			}
			p.Links = append(p.Links, second)
		}
		sp.Paths = append(sp.Paths, p)
	}

	nFlows := 1 + rng.Intn(4)
	for i := 0; i < nFlows; i++ {
		f := FlowSpec{
			Name:      fmt.Sprintf("f%d", i),
			Algorithm: fuzzAlgos[rng.Intn(len(fuzzAlgos))],
			Count:     1 + rng.Intn(3),
			StartSec:  0.8 * rng.Float64(),
		}
		if f.Algorithm == AlgoTCP {
			f.Paths = []int{rng.Intn(nPaths)}
		} else {
			nSub := 1 + rng.Intn(nPaths)
			if rng.Intn(5) == 0 {
				// Occasionally route several subflows over one path (the
				// paper's multiple-subflows-per-bottleneck regime).
				for j := 0; j < nSub; j++ {
					f.Paths = append(f.Paths, rng.Intn(nPaths))
				}
			} else {
				f.Paths = rng.Perm(nPaths)[:nSub]
			}
		}
		switch rng.Intn(4) {
		case 0:
			// Finite transfer of 16 KB .. 1 MB per path.
			f.FlowBytes = 16 << (10 + rng.Intn(7))
			if f.Algorithm != AlgoTCP {
				// Multipath finite transfers sample a subflow scheduler
				// (empty keeps the legacy per-subflow split).
				f.Scheduler = fuzzSchedulers[rng.Intn(len(fuzzSchedulers))]
				if f.Scheduler != "" && rng.Intn(3) == 0 {
					f.ChunkBytes = 2 << (10 + rng.Intn(4)) // 2-16 KB granularity
				}
			}
		case 1:
			f.StartJitter = true
		case 2:
			// Stop mid-run, after the (possibly jittered) start window.
			f.StopSec = f.StartSec + 1.3 + 0.8*rng.Float64()
		}
		sp.Flows = append(sp.Flows, f)
	}

	// Fault-injection timeline: every generated scenario carries 1-5
	// timestamped mutations — rate, delay and loss setpoints (including
	// full blackholes) plus down/up path flaps — so each campaign proves
	// the time-varying invariants hundreds of times. Draws are sorted into
	// non-decreasing order afterwards (a deterministic permutation), which
	// keeps the generator a single forward pass over the RNG stream.
	end := sp.WarmupSec + sp.DurationSec
	nEvents := 1 + rng.Intn(5)
	var evs []TimelineEvent
	for len(evs) < nEvents {
		at := end * rng.Float64()
		switch rng.Intn(4) {
		case 0:
			// Rate setpoint, same log-uniform range as the link builder.
			evs = append(evs, TimelineEvent{AtSec: at, Link: &LinkSetpoint{
				Link: rng.Intn(nLinks), RateMbps: 0.5 * math.Pow(2, 4.5*rng.Float64())}})
		case 1:
			// Delay setpoint, sometimes with a loss change riding along.
			ls := &LinkSetpoint{Link: rng.Intn(nLinks), DelayMs: Float(1 + 40*rng.Float64())}
			if rng.Intn(3) == 0 {
				ls.LossPct = Float(5 * rng.Float64())
			}
			evs = append(evs, TimelineEvent{AtSec: at, Link: ls})
		case 2:
			// Loss setpoint: clear it, light loss, or a full blackhole.
			var pct float64
			switch rng.Intn(3) {
			case 1:
				pct = 2 * rng.Float64()
			case 2:
				pct = 100
			}
			evs = append(evs, TimelineEvent{AtSec: at,
				Link: &LinkSetpoint{Link: rng.Intn(nLinks), LossPct: Float(pct)}})
		case 3:
			// Path flap, usually with a later recovery.
			p := rng.Intn(nPaths)
			evs = append(evs, TimelineEvent{AtSec: at, Path: &PathFlap{Path: p}})
			if rng.Intn(4) > 0 {
				evs = append(evs, TimelineEvent{
					AtSec: at + (end-at)*rng.Float64(), Path: &PathFlap{Path: p, Up: true}})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtSec < evs[j].AtSec })
	sp.Timeline = evs
	return sp
}
