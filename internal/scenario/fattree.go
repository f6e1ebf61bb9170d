package scenario

import (
	"fmt"
	"math/rand"

	"mptcpsim/internal/sim"
)

// The k-ary fat tree htsim simulates in §VI-B (Figs. 13-14, Table III),
// built on the same Net as a compiled Spec. It is not a Spec: every host
// pair has its own ECMP forward and reverse routes (ACKs return through the
// mirror switches, competing with other hosts' data), and the derangement,
// the ECMP picks and the start offsets come out of the simulation's own
// random stream, which the Poisson arrivals then continue — a listing of
// flows with start times in float seconds could reproduce neither.

// FatTreeConfig parameterizes the fabric, in LinkSpec's units.
type FatTreeConfig struct {
	// K is the arity: K³/4 hosts, K²/4 core switches, K pods. The paper's
	// network is K=8: 128 hosts, 80 switches.
	K int
	// RateMbps is the line rate of every link (100 Mb/s in the paper).
	RateMbps float64
	// HopDelayMs is the per-link propagation delay (data-center scale).
	HopDelayMs float64
	// BufferPkts is the drop-tail buffer of every port (htsim's default 100).
	BufferPkts int
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
	if c.RateMbps == 0 {
		c.RateMbps = 100
	}
	if c.HopDelayMs == 0 {
		c.HopDelayMs = 0.01
	}
	if c.BufferPkts == 0 {
		c.BufferPkts = 100
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

// FatTree is a k-ary fat-tree fabric (Al-Fares et al.) and its workload.
// All links are full duplex: separate queues and pipes per direction, an
// up link (toward the core) at an even index of Net.Links and its down
// twin one after it (hostUp, edgeUp, aggUp).
type FatTree struct {
	*Net
	Cfg FatTreeConfig

	// Short lists the arrival processes in host order; the long-lived
	// flows are the first of Net.Flows, in host order.
	Short []*Arrivals
}

// PaperFatTree builds the fabric and starts load on it, measured over
// [warmup, warmup+duration]. The order of construction is part of the
// contract, as in Compile: the derangement first, then per host its ECMP
// picks and its start offset, all from the simulation's random stream.
func PaperFatTree(cfg FatTreeConfig, load FatTreeLoad, seed int64, warmup, duration sim.Time) *FatTree {
	ft := newFatTree(cfg, seed, warmup, duration)
	rng := ft.Sim.Rand()
	hosts := ft.NumHosts()
	perm := derangement(rng, hosts)
	long := &FlowSpec{Algorithm: load.Algorithm, KeepSlowStart: true}
	short := &FlowSpec{Algorithm: AlgoTCP, FlowBytes: load.ShortBytes}
	for h := 0; h < hosts; h++ {
		if load.ShortBytes == 0 || h%3 == 0 {
			nsub := load.Subflows
			if load.Algorithm == AlgoTCP {
				nsub = 1
			}
			routes := ft.pickRoutes(rng, h, perm[h], nsub)
			ft.AddFlow(fmt.Sprintf("h%d", h), long, routes,
				sim.RandBelow(rng, 100*sim.Millisecond))
			continue
		}
		routes := ft.pickRoutes(rng, h, perm[h], 1)
		ft.Short = append(ft.Short, ft.AddArrivals("short", short, routes,
			load.ShortGap, warmup+sim.RandBelow(rng, load.ShortGap), ft.End-load.Drain))
	}
	return ft
}

// newFatTree lays out the fabric's links: a pair per host, then per pod
// K²/4 edge↔aggregation pairs and K²/4 aggregation↔core pairs.
func newFatTree(cfg FatTreeConfig, seed int64, warmup, duration sim.Time) *FatTree {
	cfg.fill()
	ft := &FatTree{Net: NewNet("fattree", seed, warmup, duration), Cfg: cfg}
	pairs := func(n int, rateMbps float64) {
		for i := 0; i < 2*n; i++ {
			ft.AddLink(LinkSpec{
				RateMbps: rateMbps, DelayMs: cfg.HopDelayMs,
				Queue: QueueDropTail, BufferPkts: cfg.BufferPkts,
			})
		}
	}
	pairs(ft.NumHosts(), cfg.RateMbps)
	for p := 0; p < cfg.K; p++ {
		pairs(ft.NumCores(), cfg.RateMbps/float64(cfg.Oversubscription))
		pairs(ft.NumCores(), cfg.RateMbps)
	}
	return ft
}

// NumHosts reports K³/4.
func (ft *FatTree) NumHosts() int { return ft.Cfg.K * ft.Cfg.K * ft.Cfg.K / 4 }

// NumCores reports K²/4, which is also the number of distinct cross-pod
// paths between any two hosts in different pods.
func (ft *FatTree) NumCores() int { return ft.Cfg.K * ft.Cfg.K / 4 }

// hostUp is the link from host h to its edge switch.
func (ft *FatTree) hostUp(h int) int { return 2 * h }

// edgeUp is the link from edge switch i of pod p to aggregation switch j.
func (ft *FatTree) edgeUp(p, i, j int) int {
	return 2 * (ft.NumHosts() + 2*p*ft.NumCores() + i*ft.Cfg.K/2 + j)
}

// aggUp is the link from aggregation switch j of pod p to its m-th core.
func (ft *FatTree) aggUp(p, j, m int) int { return ft.edgeUp(p, ft.Cfg.K/2, 0) + 2*(j*ft.Cfg.K/2+m) }

// locate decomposes a host index into (pod, edge-in-pod).
func (ft *FatTree) locate(h int) (pod, edge int) {
	k := ft.Cfg.K
	perPod := k * k / 4
	return h / perPod, (h % perPod) / (k / 2)
}

// route returns the wiring from src to dst through ECMP choice via. For
// cross-pod pairs via selects the core switch (0..K²/4-1); for same-pod
// pairs it selects the aggregation switch (mod K/2); for same-edge pairs it
// is ignored. ACKs return along the mirror path through the same switches.
func (ft *FatTree) route(src, dst, via int) Route {
	if src == dst {
		panic("scenario: fat-tree path to self")
	}
	half := ft.Cfg.K / 2
	ps, es := ft.locate(src)
	pd, ed := ft.locate(dst)

	fwd, rev := []int{ft.hostUp(src)}, []int{ft.hostUp(dst)}
	switch {
	case ps == pd && es == ed:
		// Same edge switch: straight down.
	case ps == pd:
		j := via % half
		fwd = append(fwd, ft.edgeUp(ps, es, j), ft.edgeUp(ps, ed, j)+1)
		rev = append(rev, ft.edgeUp(pd, ed, j), ft.edgeUp(ps, es, j)+1)
	default:
		c := ((via % ft.NumCores()) + ft.NumCores()) % ft.NumCores()
		j := c / half // aggregation index in both pods
		m := c % half // port on the aggregation switch toward core c
		fwd = append(fwd, ft.edgeUp(ps, es, j), ft.aggUp(ps, j, m), ft.aggUp(pd, j, m)+1, ft.edgeUp(pd, ed, j)+1)
		rev = append(rev, ft.edgeUp(pd, ed, j), ft.aggUp(pd, j, m), ft.aggUp(ps, j, m)+1, ft.edgeUp(ps, es, j)+1)
	}
	return Route{Fwd: append(fwd, ft.hostUp(dst)+1), Rev: append(rev, ft.hostUp(src)+1)}
}

// numPaths reports the number of distinct ECMP paths between two hosts.
func (ft *FatTree) numPaths(src, dst int) int {
	ps, es := ft.locate(src)
	pd, ed := ft.locate(dst)
	switch {
	case ps == pd && es == ed:
		return 1
	case ps == pd:
		return ft.Cfg.K / 2
	default:
		return ft.NumCores()
	}
}

// pickRoutes wires n distinct ECMP path choices between src and dst, picked
// uniformly at random (fewer if the topology offers fewer). This is how
// MPTCP subflows are placed, matching htsim's random core selection.
func (ft *FatTree) pickRoutes(rng *rand.Rand, src, dst, n int) []Route {
	avail := ft.numPaths(src, dst)
	if n > avail {
		n = avail
	}
	routes := make([]Route, n)
	for i, via := range rng.Perm(avail)[:n] {
		routes[i] = ft.route(src, dst, via)
	}
	return routes
}

// CoreLinks lists every aggregation↔core link (both directions): the
// "network core" whose utilization Table III reports.
func (ft *FatTree) CoreLinks() []int {
	var out []int
	for p := 0; p < ft.Cfg.K; p++ {
		for i := 0; i < 2*ft.NumCores(); i++ {
			out = append(out, ft.aggUp(p, 0, 0)+i)
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
