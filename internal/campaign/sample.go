package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// indexStride separates per-index RNG streams, the same constant
// scenario.GenSpec uses — a campaign is replayable per index exactly the
// way a fuzz campaign is.
const indexStride = 1_000_003

// rngPool recycles SampleSpec's generators. Seeding one is O(1) (sim.NewRand
// fills its 607-word table lazily), so the pool is not there for seeding: it
// saves allocating that 4.9 KB table afresh per scenario, which would be
// most of what a cache hit allocates. Seed leaves a pooled generator in
// exactly the state of a new one, so the draw stream does not depend on
// reuse.
var rngPool = sync.Pool{New: func() any { return sim.NewRand(0) }}

// SampleSpec deterministically builds scenario index of the campaign: a
// private RNG is seeded from (Seed, index) alone, every distribution draw
// comes from it in a fixed order, and the result is a validated
// scenario.Spec. The same (Spec, index) pair yields the identical scenario
// on every call — the property the cache key and the replay workflow rest
// on. Call on a filled, validated spec (Run does both).
func (sp *Spec) SampleSpec(index int) *scenario.Spec {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(sp.Seed + int64(index)*indexStride)
	out := &scenario.Spec{
		Name:        fmt.Sprintf("%s-%d", sp.Name, index),
		WarmupSec:   sp.WarmupSec.sample(rng),
		DurationSec: sp.DurationSec.sample(rng),
	}

	nPaths := sp.Paths.sample(rng)
	for i := 0; i < nPaths; i++ {
		l := scenario.LinkSpec{
			RateMbps: sp.LinkRateMbps.sample(rng),
			LossPct:  sp.LinkLossPct.sample(rng),
			Queue:    scenario.QueueKind(choose(rng, sp.Queues)),
		}
		out.Links = append(out.Links, l)
		// The bottleneck queue itself has zero propagation delay; the
		// path's access pipe carries the drawn one-way latency, the
		// structure of the paper's testbed.
		out.Paths = append(out.Paths, scenario.PathSpec{
			Links:   []int{i},
			DelayMs: sp.LinkDelayMs.sample(rng),
		})
	}

	user := scenario.FlowSpec{
		Name:        "user",
		Algorithm:   choose(rng, sp.Algorithms),
		Paths:       pathIndices(nPaths),
		StartJitter: sp.StartJitter,
	}
	if fb := int64(sp.FlowBytes.sample(rng)); fb > 0 {
		// Clamp to one segment per subflow, the scenario DSL's floor for
		// scheduled transfers.
		if min := int64(nPaths) * netem.MSS; fb < min {
			fb = min
		}
		user.FlowBytes = fb
		user.Scheduler = choose(rng, sp.Schedulers)
	}
	out.Flows = append(out.Flows, user)
	for i := 0; i < nPaths; i++ {
		if n := sp.Background.sample(rng); n > 0 {
			out.Flows = append(out.Flows, scenario.FlowSpec{
				Name:        fmt.Sprintf("bg%d", i),
				Algorithm:   scenario.AlgoTCP,
				Paths:       []int{i},
				Count:       n,
				StartJitter: sp.StartJitter,
			})
		}
	}

	out.Timeline = sp.sampleTimeline(rng, out, nPaths)
	// The scenario's own seed (start jitter, RED, random loss) is the last
	// draw, so extending the DSL appends draws without shifting it.
	out.Seed = rng.Int63()
	return out
}

// pathIndices is [0, 1, …, n-1]: the user's subflows cover every path.
func pathIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sampleTimeline draws the scenario's fault timeline: Events events of the
// enabled kinds at uniform times across the whole run, sorted into the
// non-decreasing order the scenario DSL requires. Blackholes and flaps
// always pair with a later recovery so the measured window is an outage,
// not a permanent amputation of the sampled population.
func (sp *Spec) sampleTimeline(rng *rand.Rand, out *scenario.Spec, nPaths int) []scenario.TimelineEvent {
	n := sp.Faults.Events.sample(rng)
	if n <= 0 {
		return nil
	}
	kinds := sp.Faults.kinds()
	end := out.WarmupSec + out.DurationSec
	var evs []scenario.TimelineEvent
	for e := 0; e < n; e++ {
		at := end * rng.Float64()
		switch choose(rng, kinds) {
		case "rate":
			evs = append(evs, scenario.TimelineEvent{AtSec: at, Link: &scenario.LinkSetpoint{
				Link: rng.Intn(nPaths), RateMbps: sp.LinkRateMbps.sample(rng)}})
		case "blackhole":
			l := rng.Intn(nPaths)
			evs = append(evs, scenario.TimelineEvent{AtSec: at,
				Link: &scenario.LinkSetpoint{Link: l, LossPct: scenario.Float(100)}})
			evs = append(evs, scenario.TimelineEvent{AtSec: at + (end-at)*rng.Float64(),
				Link: &scenario.LinkSetpoint{Link: l, LossPct: scenario.Float(out.Links[l].LossPct)}})
		case "flap":
			p := rng.Intn(nPaths)
			evs = append(evs, scenario.TimelineEvent{AtSec: at, Path: &scenario.PathFlap{Path: p}})
			evs = append(evs, scenario.TimelineEvent{AtSec: at + (end-at)*rng.Float64(),
				Path: &scenario.PathFlap{Path: p, Up: true}})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtSec < evs[j].AtSec })
	return evs
}
