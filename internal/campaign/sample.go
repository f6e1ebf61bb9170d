package campaign

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// indexStride separates per-index RNG streams, the same constant
// scenario.GenSpec uses — a campaign is replayable per index exactly the
// way a fuzz campaign is.
const indexStride = 1_000_003

// SampleSpec deterministically builds scenario index of the campaign: a
// private RNG is seeded from (Seed, index) alone, every distribution draw
// comes from it in a fixed order, and the result is a validated
// scenario.Spec. The same (Spec, index) pair yields the identical scenario
// on every call — the property the cache key and the replay workflow rest
// on. Call on a filled, validated spec (Run does both).
func (sp *Spec) SampleSpec(index int) *scenario.Spec {
	s := new(sampled)
	sp.sampleInto(s, index)
	sim.FreeRand(s.rng)
	s.rng = nil
	return &s.Spec
}

// sampled is a scenario sampleInto fills, plus the storage its slices and
// pointers are carved from and the generator it is drawn with. The storage
// lives here rather than only behind the Spec's own fields because a draw
// that needs less of it — a scenario without faults has a nil Timeline —
// must not drop it: Run samples every index into a pooled sampled, and a
// warm hit then builds no garbage and takes no generator from a pool.
type sampled struct {
	scenario.Spec
	rng     *rand.Rand               // from sim.NewRand, reseeded for each draw
	indices []int                    // 0, 1, 2, …: every path's link list and every flow's path list
	events  []scenario.TimelineEvent // Timeline's backing array
	targets []eventTarget            // what Timeline[k]'s pointers point at
}

// eventTarget is the storage behind one timeline event's pointers: a
// setpoint and the loss its LossPct points at, or a flap.
type eventTarget struct {
	set  scenario.LinkSetpoint
	loss float64
	flap scenario.PathFlap
}

// bgNames are the background flow groups' names, one per path Validate
// allows, so naming one allocates nothing.
var bgNames = func() (names [maxPaths]string) {
	for i := range names {
		names[i] = "bg" + strconv.Itoa(i)
	}
	return names
}()

// sampleInto builds scenario index into s, reusing the storage of whatever
// s held before: the result equals SampleSpec(index) field for field
// (TestSampleIntoReusesScratch), and once s has held a scenario as large it
// allocates only the scenario's name. The scenario is written in place,
// field by field, rather than built aside and copied in.
func (sp *Spec) sampleInto(s *sampled, index int) {
	seed := sp.Seed + int64(index)*indexStride
	if s.rng == nil {
		s.rng = sim.NewRand(seed)
	} else {
		s.rng.Seed(seed)
	}
	rng := s.rng
	links, paths, flows := s.Links[:0], s.Paths[:0], s.Flows[:0]
	var buf [64]byte // the name's bytes: one allocation, the string's
	name := append(append(buf[:0], sp.Name...), '-')
	out := &s.Spec
	*out = scenario.Spec{}
	out.Name = string(strconv.AppendInt(name, int64(index), 10))
	out.WarmupSec = sp.WarmupSec.sample(rng)
	out.DurationSec = sp.DurationSec.sample(rng)

	nPaths := sp.Paths.sample(rng)
	if len(s.indices) < nPaths {
		s.indices = make([]int, nPaths)
		for i := range s.indices {
			s.indices[i] = i
		}
	}
	// One backing array serves every index list: path i crosses link i,
	// background group i rides path i, and the user covers every path.
	// Each list is capped at its length, so none can grow into another.
	idx := s.indices
	out.Links = slices.Grow(links, nPaths)[:nPaths]
	out.Paths = slices.Grow(paths, nPaths)[:nPaths]
	for i := 0; i < nPaths; i++ {
		out.Links[i] = scenario.LinkSpec{
			RateMbps: sp.LinkRateMbps.sample(rng),
			LossPct:  sp.LinkLossPct.sample(rng),
			Queue:    scenario.QueueKind(choose(rng, sp.Queues)),
		}
		// The bottleneck queue itself has zero propagation delay; the
		// path's access pipe carries the drawn one-way latency, the
		// structure of the paper's testbed.
		out.Paths[i] = scenario.PathSpec{
			Links:   idx[i : i+1 : i+1],
			DelayMs: sp.LinkDelayMs.sample(rng),
		}
	}

	// The user, then at most one background group per path: the flows
	// never outgrow the capacity grown here.
	out.Flows = slices.Grow(flows, 1+nPaths)[:1]
	user := &out.Flows[0]
	*user = scenario.FlowSpec{}
	user.Name, user.Paths, user.StartJitter = "user", idx[:nPaths:nPaths], sp.StartJitter
	user.Algorithm = choose(rng, sp.Algorithms)
	if fb := int64(sp.FlowBytes.sample(rng)); fb > 0 {
		// Clamp to one segment per subflow, the scenario DSL's floor for
		// scheduled transfers.
		if min := int64(nPaths) * netem.MSS; fb < min {
			fb = min
		}
		user.FlowBytes = fb
		user.Scheduler = choose(rng, sp.Schedulers)
	}
	for i := 0; i < nPaths; i++ {
		if n := sp.Background.sample(rng); n > 0 {
			out.Flows = out.Flows[:len(out.Flows)+1]
			bg := &out.Flows[len(out.Flows)-1]
			*bg = scenario.FlowSpec{}
			bg.Name, bg.Algorithm, bg.Paths = bgNames[i], scenario.AlgoTCP, idx[i:i+1:i+1]
			bg.Count, bg.StartJitter = n, sp.StartJitter
		}
	}

	out.Timeline = sp.sampleTimeline(rng, s, out, nPaths)
	// The scenario's own seed (start jitter, RED, random loss) is the last
	// draw, so extending the DSL appends draws without shifting it.
	out.Seed = rng.Int63()
}

// sampleTimeline draws the scenario's fault timeline into s's storage:
// Events events of the enabled kinds at uniform times across the whole
// run, sorted into the non-decreasing order the scenario DSL requires.
// Blackholes and flaps always pair with a later recovery so the measured
// window is an outage, not a permanent amputation of the sampled
// population.
func (sp *Spec) sampleTimeline(rng *rand.Rand, s *sampled, out *scenario.Spec, nPaths int) []scenario.TimelineEvent {
	n := sp.Faults.Events.sample(rng)
	if n <= 0 {
		return nil
	}
	kinds := sp.Faults.kinds()
	end := out.WarmupSec + out.DurationSec
	// A blackhole or flap is two events. The targets are sized before the
	// first pointer into them is taken, so growing them never strands one.
	evs := slices.Grow(s.events[:0], 2*n)
	s.events = evs
	if len(s.targets) < 2*n {
		s.targets = make([]eventTarget, 2*n)
	}
	for e := 0; e < n; e++ {
		at := end * rng.Float64()
		switch choose(rng, kinds) {
		case "rate":
			t := &s.targets[len(evs)]
			t.set = scenario.LinkSetpoint{Link: rng.Intn(nPaths), RateMbps: sp.LinkRateMbps.sample(rng)}
			evs = append(evs, scenario.TimelineEvent{AtSec: at, Link: &t.set})
		case "blackhole":
			l := rng.Intn(nPaths)
			evs = append(evs, s.lossEvent(len(evs), at, l, 100))
			evs = append(evs, s.lossEvent(len(evs), at+(end-at)*rng.Float64(), l, out.Links[l].LossPct))
		case "flap":
			p := rng.Intn(nPaths)
			evs = append(evs, s.flapEvent(len(evs), at, scenario.PathFlap{Path: p}))
			evs = append(evs, s.flapEvent(len(evs), at+(end-at)*rng.Float64(), scenario.PathFlap{Path: p, Up: true}))
		}
	}
	slices.SortStableFunc(evs, func(a, b scenario.TimelineEvent) int { return cmp.Compare(a.AtSec, b.AtSec) })
	return evs
}

// lossEvent is timeline event k: loss pct on link l from at.
func (s *sampled) lossEvent(k int, at float64, l int, pct float64) scenario.TimelineEvent {
	t := &s.targets[k]
	t.loss = pct
	t.set = scenario.LinkSetpoint{Link: l, LossPct: &t.loss}
	return scenario.TimelineEvent{AtSec: at, Link: &t.set}
}

// flapEvent is timeline event k: flap f at at.
func (s *sampled) flapEvent(k int, at float64, f scenario.PathFlap) scenario.TimelineEvent {
	t := &s.targets[k]
	t.flap = f
	return scenario.TimelineEvent{AtSec: at, Path: &t.flap}
}
