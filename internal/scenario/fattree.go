package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"mptcpsim/internal/sim"
)

// The k-ary fat tree htsim simulates in §VI-B (Figs. 13-14, Table III), as a
// Spec. ACKs return through the mirror switches, competing with other
// hosts' data, so every path lists its Rev. The random choices are drawn up
// front from a generator on the spec's seed, in the order the simulation
// drew them when the short-flow arrivals were events of the run: the
// fabric's queues are drop-tail, without random loss or start jitter, so
// nothing else draws from that stream.

// Every link of the fabric, in LinkSpec's units.
const (
	fatTreeRateMbps   = 100  // line rate, the paper's 100 Mb/s
	fatTreeHopDelayMs = 0.01 // per-link propagation delay, data-center scale
	fatTreeBufferPkts = 100  // drop-tail buffer of every port, htsim's default
)

// FatTreeConfig parameterizes the fabric.
type FatTreeConfig struct {
	// K is the arity: K³/4 hosts, K²/4 core switches, K pods. The paper's
	// network is K=8: 128 hosts, 80 switches.
	K int
	// Oversubscription divides the edge→aggregation uplink capacity: 4 gives
	// the paper's 4:1 oversubscribed FatTree (§VI-B2); 0 or 1 keeps the
	// fabric non-blocking.
	Oversubscription int
}

func (c *FatTreeConfig) fill() {
	if c.K == 0 {
		c.K = 8
	}
	if c.K < 2 || c.K%2 != 0 {
		panic(fmt.Sprintf("scenario: fat-tree K must be even and >= 2, got %d", c.K))
	}
	if c.Oversubscription == 0 {
		c.Oversubscription = 1
	}
}

// FatTreeLoad is the §VI-B traffic: every host sends to its partner in a
// random derangement, over ECMP paths picked at random.
type FatTreeLoad struct {
	// Algorithm and Subflows describe the long-lived flows: AlgoTCP (one
	// path) or a coupled controller over Subflows distinct paths, slow
	// start kept as in htsim (the ssthresh=1 setting of §IV-B is the Linux
	// testbed implementation). They start within the first 100 ms.
	Algorithm string
	Subflows  int
	// ShortBytes > 0 leaves the long flows to every third host and makes
	// each other host a Poisson source of ShortBytes-byte TCP flows, mean
	// spacing ShortGap, from the end of the warm-up until Drain before the
	// window closes (so the tail completes inside it).
	ShortBytes      int64
	ShortGap, Drain sim.Time
}

// PaperFatTree returns the fabric and its load as a Spec measured over
// [warmup, warmup+duration]. Paths come in host order; Flows are the long
// flows in host order, then the short flows in arrival order, each named
// after its sending host, a short flow over its host's one path. The draws
// are the derangement, then per host its ECMP picks and its start offset
// or first arrival, then the arrival gaps (see starts). Every drawn time is
// emitted as sim.Time.ExactSec, which Compile maps back to the nanosecond.
func PaperFatTree(cfg FatTreeConfig, load FatTreeLoad, seed int64, warmup, duration sim.Time) *Spec {
	cfg.fill()
	if load.ShortBytes < 0 || (load.ShortBytes > 0 && load.ShortGap <= 0) {
		panic("scenario: fat-tree short flows need a positive size and mean gap")
	}
	rng := sim.NewRand(seed)
	defer sim.FreeRand(rng)
	hosts := cfg.NumHosts()
	perm := derangement(rng, hosts)
	short := func(h int) bool { return load.ShortBytes > 0 && h%3 != 0 }

	// Size every slice exactly: host h takes picks[h] of its ECMP paths.
	picks := make([]int, hosts)
	var nPaths, nLinks int
	for h := range hosts {
		paths, hops := cfg.ecmp(h, perm[h])
		picks[h] = 1
		if !short(h) && load.Algorithm != AlgoTCP {
			picks[h] = min(load.Subflows, paths)
		}
		nPaths += picks[h]
		nLinks += 2 * hops * picks[h]
	}
	sp := &Spec{
		Name: "fattree", Seed: seed,
		WarmupSec: warmup.ExactSec(), DurationSec: duration.ExactSec(),
		Links: cfg.links(),
		Paths: make([]PathSpec, 0, nPaths),
	}
	links, index, names := make([]int, nLinks), make([]int, nPaths), make([]string, hosts)
	first := make([]arrival, hosts) // each host's start, or its first arrival
	for h := range hosts {
		names[h] = "h" + strconv.Itoa(h)
		first[h] = arrival{host: h, path: len(sp.Paths)}
		paths, hops := cfg.ecmp(h, perm[h])
		for _, via := range rng.Perm(paths)[:picks[h]] {
			index[len(sp.Paths)] = len(sp.Paths) // a flow's Paths is a window of index
			sp.Paths = append(sp.Paths, cfg.path(h, perm[h], via, links[:2*hops:2*hops]))
			links = links[2*hops:]
		}
		if short(h) {
			first[h].at = warmup + sim.RandBelow(rng, load.ShortGap)
		} else {
			first[h].at = sim.RandBelow(rng, 100*sim.Millisecond)
		}
	}
	flows := starts(rng, first, short, load.ShortGap, warmup+duration-load.Drain)
	sp.Flows = make([]FlowSpec, len(flows))
	for i, a := range flows {
		end := a.path + picks[a.host]
		sp.Flows[i] = FlowSpec{Name: names[a.host], Algorithm: load.Algorithm, Paths: index[a.path:end:end],
			StartSec: a.at.ExactSec(), KeepSlowStart: true}
		if short(a.host) {
			sp.Flows[i].Algorithm, sp.Flows[i].KeepSlowStart, sp.Flows[i].FlowBytes = AlgoTCP, false, load.ShortBytes
		}
	}
	return sp
}

// arrival is the start of a flow of host, over its paths from index path.
type arrival struct {
	at         sim.Time
	host, path int
}

// starts returns the start of every flow: the long hosts' in host order,
// then the short-flow arrivals, none after until, in the order the kernel
// fired them as events. A short host's first arrival is scheduled in host
// order and each later one, an exponential gap of mean meanGap on, when its
// predecessor fires; the earliest pending arrival fires first, ties to the
// one scheduled first. A slice scan finds it among a few dozen hosts.
func starts(rng *rand.Rand, first []arrival, short func(int) bool, meanGap, until sim.Time) []arrival {
	type source struct {
		arrival
		order int // when the pending arrival was scheduled
	}
	var out []arrival
	srcs := make([]source, 0, len(first))
	for h, a := range first {
		switch {
		case !short(h):
			out = append(out, a)
		case a.at <= until:
			srcs = append(srcs, source{arrival: a, order: h})
		}
	}
	for order := len(first); len(srcs) > 0; order++ {
		e := 0
		for i := range srcs {
			if srcs[i].at < srcs[e].at || (srcs[i].at == srcs[e].at && srcs[i].order < srcs[e].order) {
				e = i
			}
		}
		s := &srcs[e]
		out = append(out, s.arrival)
		if s.at += expGap(rng, meanGap); s.at <= until {
			s.order = order
		} else {
			srcs = append(srcs[:e], srcs[e+1:]...)
		}
	}
	return out
}

// expGap draws an exponential inter-arrival time with mean meanGap, at
// least a microsecond.
func expGap(rng *rand.Rand, meanGap sim.Time) sim.Time {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return max(sim.FromNanos(-math.Log(u)*meanGap.Nanos()), sim.Microsecond)
}

// links lays out the fabric's links, all full duplex: an up link (toward
// the core) at an even index and its down twin one after it — a pair per
// host, then per pod K²/4 edge↔aggregation pairs and K²/4 aggregation↔core
// pairs (hostUp, edgeUp, aggUp).
func (c FatTreeConfig) links() []LinkSpec {
	out := make([]LinkSpec, 0, 2*c.NumHosts()+4*c.K*c.NumCores())
	pairs := func(n int, rateMbps float64) {
		for range 2 * n {
			out = append(out, LinkSpec{
				RateMbps: rateMbps, DelayMs: fatTreeHopDelayMs,
				Queue: QueueDropTail, BufferPkts: fatTreeBufferPkts,
			})
		}
	}
	pairs(c.NumHosts(), fatTreeRateMbps)
	for range c.K {
		pairs(c.NumCores(), fatTreeRateMbps/float64(c.Oversubscription))
		pairs(c.NumCores(), fatTreeRateMbps)
	}
	return out
}

// NumHosts reports K³/4.
func (c FatTreeConfig) NumHosts() int { return c.K * c.K * c.K / 4 }

// NumCores reports K²/4, which is also the number of distinct cross-pod
// paths between any two hosts in different pods.
func (c FatTreeConfig) NumCores() int { return c.K * c.K / 4 }

// hostUp is the link from host h to its edge switch.
func (c FatTreeConfig) hostUp(h int) int { return 2 * h }

// edgeUp is the link from edge switch i of pod p to aggregation switch j.
func (c FatTreeConfig) edgeUp(p, i, j int) int {
	return 2 * (c.NumHosts() + 2*p*c.NumCores() + i*c.K/2 + j)
}

// aggUp is the link from aggregation switch j of pod p to its m-th core.
func (c FatTreeConfig) aggUp(p, j, m int) int { return c.edgeUp(p, c.K/2, 0) + 2*(j*c.K/2+m) }

// locate decomposes a host index into (pod, edge-in-pod).
func (c FatTreeConfig) locate(h int) (pod, edge int) {
	perPod := c.K * c.K / 4
	return h / perPod, (h % perPod) / (c.K / 2)
}

// path returns the wiring from src to dst through ECMP choice via, its
// Links and Rev carved from links (which may be nil). For cross-pod pairs
// via selects the core switch (0..K²/4-1); for same-pod pairs it selects
// the aggregation switch (mod K/2); for same-edge pairs it is ignored. ACKs
// return along the mirror path through the same switches.
func (c FatTreeConfig) path(src, dst, via int, links []int) PathSpec {
	if src == dst {
		panic("scenario: fat-tree path to self")
	}
	half := c.K / 2
	ps, es := c.locate(src)
	pd, ed := c.locate(dst)

	n := len(links) / 2
	fwd := append(links[:0:n], c.hostUp(src))
	rev := append(links[n:n], c.hostUp(dst))
	switch {
	case ps == pd && es == ed:
		// Same edge switch: straight down.
	case ps == pd:
		j := via % half
		fwd = append(fwd, c.edgeUp(ps, es, j), c.edgeUp(ps, ed, j)+1)
		rev = append(rev, c.edgeUp(pd, ed, j), c.edgeUp(ps, es, j)+1)
	default:
		core := ((via % c.NumCores()) + c.NumCores()) % c.NumCores()
		j := core / half // aggregation index in both pods
		m := core % half // port on the aggregation switch toward the core
		fwd = append(fwd, c.edgeUp(ps, es, j), c.aggUp(ps, j, m), c.aggUp(pd, j, m)+1, c.edgeUp(pd, ed, j)+1)
		rev = append(rev, c.edgeUp(pd, ed, j), c.aggUp(pd, j, m), c.aggUp(ps, j, m)+1, c.edgeUp(ps, es, j)+1)
	}
	return PathSpec{Links: append(fwd, c.hostUp(dst)+1), Rev: append(rev, c.hostUp(src)+1)}
}

// ecmp reports the number of distinct ECMP paths between two hosts and the
// number of links each crosses one way.
func (c FatTreeConfig) ecmp(src, dst int) (paths, hops int) {
	ps, es := c.locate(src)
	pd, ed := c.locate(dst)
	switch {
	case ps == pd && es == ed:
		return 1, 2
	case ps == pd:
		return c.K / 2, 4
	default:
		return c.NumCores(), 6
	}
}

// CoreLinks lists every aggregation↔core link (both directions): the
// "network core" whose utilization Table III reports.
func (c FatTreeConfig) CoreLinks() []int {
	out := make([]int, 0, 2*c.K*c.NumCores())
	for p := range c.K {
		for i := range 2 * c.NumCores() {
			out = append(out, c.aggUp(p, 0, 0)+i)
		}
	}
	return out
}

// derangement returns a uniformly random permutation of 0..n-1 with no
// fixed points (no host sends to itself), by rejection sampling. n must be
// at least 2.
func derangement(rng *rand.Rand, n int) []int {
	if n < 2 {
		panic("scenario: derangement needs n >= 2")
	}
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}
