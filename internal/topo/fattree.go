// Package topo builds the k-ary fat-tree data-center fabric htsim simulates
// in §VI-B (Figs. 13-14), including the 4:1 oversubscribed variant. It is
// the one hand-built topology left: the testbed networks (Scenarios A, B, C
// and the two-link rig) are scenario.Spec builders (internal/scenario
// paper.go), but a fat tree gives every host pair its own ECMP forward and
// reverse routes and runs a Poisson short-flow workload, neither of which a
// Spec — shared reverse link, flows listed up front — expresses yet.
package topo

import (
	"fmt"
	"math/rand"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/workload"
)

// FatTreeConfig parameterizes the §VI-B data-center fabric.
type FatTreeConfig struct {
	// K is the arity: K³/4 hosts, K²/4 core switches, K pods. The paper's
	// network is K=8: 128 hosts, 80 switches.
	K int
	// LinkRateBps is the line rate of every link (100 Mb/s in the paper).
	LinkRateBps int64
	// HopDelay is the per-link propagation delay (data-center scale).
	HopDelay sim.Time
	// QueuePkts is the drop-tail buffer of every port (htsim's default 100).
	QueuePkts int
	// Oversubscription divides the edge→aggregation uplink capacity:
	// 4 gives the paper's 4:1 oversubscribed FatTree (§VI-B2); 0 or 1
	// keeps the fabric non-blocking.
	Oversubscription int
	Seed             int64
}

func (c *FatTreeConfig) fill() {
	if c.K == 0 {
		c.K = 8
	}
	if c.K < 2 || c.K%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree K must be even and >= 2, got %d", c.K))
	}
	if c.LinkRateBps == 0 {
		c.LinkRateBps = 100_000_000
	}
	if c.HopDelay == 0 {
		c.HopDelay = 10 * sim.Microsecond
	}
	if c.QueuePkts == 0 {
		c.QueuePkts = 100
	}
	if c.Oversubscription == 0 {
		c.Oversubscription = 1
	}
}

// FatTree is a k-ary fat-tree fabric (Al-Fares et al.), the topology of the
// paper's htsim experiments. All links are full duplex: separate queues and
// pipes per direction.
type FatTree struct {
	S   *sim.Sim
	Cfg FatTreeConfig

	// hostUp[h] carries host h's traffic to its edge switch; hostDown[h]
	// the reverse.
	hostUp, hostDown []*netem.Link
	// edgeUp[p][i][j] is edge i of pod p toward agg j; edgeDown the
	// reverse direction (agg j toward edge i).
	edgeUp, edgeDown [][][]*netem.Link
	// aggUp[p][j][m] is agg j of pod p toward its m-th core; aggDown the
	// reverse.
	aggUp, aggDown [][][]*netem.Link
}

// NewFatTree builds the fabric.
func NewFatTree(cfg FatTreeConfig) *FatTree {
	cfg.fill()
	s := sim.New(cfg.Seed)
	ft := &FatTree{S: s, Cfg: cfg}
	k := cfg.K
	half := k / 2

	uplinkRate := cfg.LinkRateBps / int64(cfg.Oversubscription)
	mk := func(rate int64, name string) *netem.Link {
		return netem.NewLink(s, netem.LinkConfig{
			RateBps:      rate,
			Delay:        cfg.HopDelay,
			Kind:         netem.QueueDropTail,
			DropTailPkts: cfg.QueuePkts,
		}, name)
	}

	nHosts := k * k * k / 4
	for h := 0; h < nHosts; h++ {
		ft.hostUp = append(ft.hostUp, mk(cfg.LinkRateBps, fmt.Sprintf("hup%d", h)))
		ft.hostDown = append(ft.hostDown, mk(cfg.LinkRateBps, fmt.Sprintf("hdn%d", h)))
	}
	ft.edgeUp = make([][][]*netem.Link, k)
	ft.edgeDown = make([][][]*netem.Link, k)
	ft.aggUp = make([][][]*netem.Link, k)
	ft.aggDown = make([][][]*netem.Link, k)
	for p := 0; p < k; p++ {
		ft.edgeUp[p] = make([][]*netem.Link, half)
		ft.edgeDown[p] = make([][]*netem.Link, half)
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				ft.edgeUp[p][i] = append(ft.edgeUp[p][i], mk(uplinkRate, fmt.Sprintf("eup%d.%d.%d", p, i, j)))
				ft.edgeDown[p][i] = append(ft.edgeDown[p][i], mk(uplinkRate, fmt.Sprintf("edn%d.%d.%d", p, i, j)))
			}
		}
		ft.aggUp[p] = make([][]*netem.Link, half)
		ft.aggDown[p] = make([][]*netem.Link, half)
		for j := 0; j < half; j++ {
			for m := 0; m < half; m++ {
				ft.aggUp[p][j] = append(ft.aggUp[p][j], mk(cfg.LinkRateBps, fmt.Sprintf("aup%d.%d.%d", p, j, m)))
				ft.aggDown[p][j] = append(ft.aggDown[p][j], mk(cfg.LinkRateBps, fmt.Sprintf("adn%d.%d.%d", p, j, m)))
			}
		}
	}
	return ft
}

// NumHosts reports K³/4.
func (ft *FatTree) NumHosts() int { return ft.Cfg.K * ft.Cfg.K * ft.Cfg.K / 4 }

// NumCores reports K²/4, which is also the number of distinct cross-pod
// paths between any two hosts in different pods.
func (ft *FatTree) NumCores() int { return ft.Cfg.K * ft.Cfg.K / 4 }

// locate decomposes a host index into (pod, edge-in-pod, port).
func (ft *FatTree) locate(h int) (pod, edge, port int) {
	k := ft.Cfg.K
	perPod := k * k / 4
	half := k / 2
	pod = h / perPod
	edge = (h % perPod) / half
	port = h % half
	return
}

// Path returns the bidirectional path from src to dst through ECMP choice
// `via`. For cross-pod pairs via selects the core switch (0..K²/4-1); for
// same-pod pairs it selects the aggregation switch (mod K/2); for same-edge
// pairs it is ignored. ACKs return along the mirror path through the same
// switches.
func (ft *FatTree) Path(src, dst, via int) workload.PathPair {
	if src == dst {
		panic("topo: path to self")
	}
	k := ft.Cfg.K
	half := k / 2
	ps, es, _ := ft.locate(src)
	pd, ed, _ := ft.locate(dst)

	var fwd, rev []netem.Node
	add := func(hops *[]netem.Node, l *netem.Link) {
		*hops = append(*hops, l.Q, l.P)
	}

	add(&fwd, ft.hostUp[src])
	add(&rev, ft.hostUp[dst])
	switch {
	case ps == pd && es == ed:
		// Same edge switch: straight down.
	case ps == pd:
		j := via % half
		add(&fwd, ft.edgeUp[ps][es][j])
		add(&fwd, ft.edgeDown[ps][ed][j])
		add(&rev, ft.edgeUp[pd][ed][j])
		add(&rev, ft.edgeDown[ps][es][j])
	default:
		c := ((via % ft.NumCores()) + ft.NumCores()) % ft.NumCores()
		j := c / half // aggregation index in both pods
		m := c % half // port on the aggregation switch toward core c
		add(&fwd, ft.edgeUp[ps][es][j])
		add(&fwd, ft.aggUp[ps][j][m])
		add(&fwd, ft.aggDown[pd][j][m])
		add(&fwd, ft.edgeDown[pd][ed][j])
		add(&rev, ft.edgeUp[pd][ed][j])
		add(&rev, ft.aggUp[pd][j][m])
		add(&rev, ft.aggDown[ps][j][m])
		add(&rev, ft.edgeDown[ps][es][j])
	}
	add(&fwd, ft.hostDown[dst])
	add(&rev, ft.hostDown[src])
	return workload.PathPair{Fwd: fwd, Rev: rev}
}

// NumPaths reports the number of distinct ECMP paths between two hosts.
func (ft *FatTree) NumPaths(src, dst int) int {
	ps, es, _ := ft.locate(src)
	pd, ed, _ := ft.locate(dst)
	switch {
	case ps == pd && es == ed:
		return 1
	case ps == pd:
		return ft.Cfg.K / 2
	default:
		return ft.NumCores()
	}
}

// PickPaths selects n distinct ECMP path choices between src and dst,
// uniformly at random (fewer if the topology offers fewer). This is how
// MPTCP subflows are placed, matching htsim's random core selection.
func (ft *FatTree) PickPaths(rng *rand.Rand, src, dst, n int) []int {
	avail := ft.NumPaths(src, dst)
	if n > avail {
		n = avail
	}
	perm := rng.Perm(avail)
	return perm[:n]
}

// CoreLinks lists every aggregation↔core link (both directions): the
// "network core" whose utilization Table III reports.
func (ft *FatTree) CoreLinks() []*netem.Link {
	var out []*netem.Link
	for p := range ft.aggUp {
		for j := range ft.aggUp[p] {
			out = append(out, ft.aggUp[p][j]...)
			out = append(out, ft.aggDown[p][j]...)
		}
	}
	return out
}
