package scenario

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/sim"
)

// smallTree is a bare K=4 fabric measured over [0, secs].
func smallTree(seed int64, secs float64) *FatTree {
	return newFatTree(FatTreeConfig{K: 4}, seed, 0, sim.Seconds(secs))
}

// bulk adds one long-lived TCP flow over a route.
func bulk(ft *FatTree, name string, r Route, start sim.Time) *Flow {
	return ft.AddFlow(name, &FlowSpec{Algorithm: AlgoTCP}, []Route{r}, start)
}

// runClean runs the network and fails on any invariant violation.
func runClean(t *testing.T, n *Net) *RunReport {
	t.Helper()
	rep, err := n.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	return rep
}

func TestFatTreeDimensions(t *testing.T) {
	ft := smallTree(1, 1)
	if ft.NumHosts() != 16 {
		t.Fatalf("hosts %d, want 16", ft.NumHosts())
	}
	if ft.NumCores() != 4 {
		t.Fatalf("cores %d, want 4", ft.NumCores())
	}
	// Paper-scale check without building: K=8 → 128 hosts, 16 cores.
	big := FatTree{Cfg: FatTreeConfig{K: 8}}
	if big.NumHosts() != 128 || big.NumCores() != 16 {
		t.Fatalf("K=8: %d hosts, %d cores", big.NumHosts(), big.NumCores())
	}
}

func TestFatTreeDefaultsMatchPaper(t *testing.T) {
	var cfg FatTreeConfig
	cfg.fill()
	if cfg.K != 8 || cfg.RateMbps != 100 || cfg.BufferPkts != 100 {
		t.Fatalf("defaults %+v", cfg)
	}
	// The defaults reach the links as htsim's exact values.
	l := smallTree(1, 1).Links[0]
	if l.Queue.RateBps() != 100_000_000 || l.Pipe.Delay() != 10*sim.Microsecond || l.LimitPkts != 100 {
		t.Fatalf("host link: %d b/s, %v delay, %d pkts", l.Queue.RateBps(), l.Pipe.Delay(), l.LimitPkts)
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newFatTree(FatTreeConfig{K: 3}, 1, 0, sim.Second)
}

func TestFatTreeNumPaths(t *testing.T) {
	ft := smallTree(1, 1)
	// Hosts 0 and 1 share an edge switch; 0 and 2 share a pod; 0 and 8 are
	// cross-pod (pod 0 vs pod 2).
	if got := ft.numPaths(0, 1); got != 1 {
		t.Fatalf("same-edge paths %d", got)
	}
	if got := ft.numPaths(0, 2); got != 2 {
		t.Fatalf("same-pod paths %d", got)
	}
	if got := ft.numPaths(0, 8); got != 4 {
		t.Fatalf("cross-pod paths %d", got)
	}
}

func TestFatTreeQueueInventory(t *testing.T) {
	ft := smallTree(1, 1)
	// K=4: 32 host links, 32 edge-agg links, 32 agg-core links.
	if got := len(ft.Links); got != 96 {
		t.Fatalf("links %d, want 96", got)
	}
	if got := len(ft.CoreLinks()); got != 32 {
		t.Fatalf("core links %d, want 32", got)
	}
}

func TestFatTreePathDeliversAtLineRate(t *testing.T) {
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 8}} {
		ft := smallTree(2, 2)
		f := bulk(ft, "bulk", ft.route(pair[0], pair[1], 0), 0)
		runClean(t, ft.Net)
		mbits := float64(f.GoodputBytes()) * 8 / 1e6 / 2
		if mbits < 80 {
			t.Errorf("pair %v: %.1f Mb/s, want ≈100", pair, mbits)
		}
		if mbits > 100 {
			t.Errorf("pair %v: %.1f Mb/s exceeds line rate", pair, mbits)
		}
	}
}

func TestFatTreeDistinctECMPPathsAreDisjointAtCore(t *testing.T) {
	ft := smallTree(3, 1)
	// Two flows between the same cross-pod pair on different cores must not
	// share any aggregation-core link.
	seen := map[int]bool{}
	for _, l := range ft.route(0, 8, 0).Fwd {
		seen[l] = true
	}
	shared := func(via int) (n int) {
		for _, l := range ft.route(0, 8, via).Fwd {
			if seen[l] {
				n++
			}
		}
		return n
	}
	// They necessarily share the two host links; cores 0 and 1 hang off the
	// same aggregation switch (j = c/2 = 0), so the edge-agg links are
	// shared too. Cores 0 and 2 differ in aggregation switch.
	if shared(2) >= shared(1) {
		t.Fatalf("core 2 path should be more disjoint than core 1 path (%d vs %d shared)", shared(2), shared(1))
	}
	if shared(2) != 2 {
		t.Fatalf("cross-agg paths share %d links, want 2 (host links only)", shared(2))
	}
	// The ACK path mirrors the data path through the same switches.
	r := ft.route(0, 8, 2)
	back := ft.route(8, 0, 2)
	for i := range r.Rev {
		if r.Rev[i] != back.Fwd[i] {
			t.Fatalf("reverse route %v is not the forward route of the mirror pair %v", r.Rev, back.Fwd)
		}
	}
}

func TestFatTreePickPathsDistinct(t *testing.T) {
	ft := smallTree(4, 1)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		got := ft.pickRoutes(rng, 0, 8, 8)
		if len(got) != 4 { // only 4 cores exist at K=4
			t.Fatalf("picked %d, want clamp to 4", len(got))
		}
		seen := map[int]bool{}
		for _, r := range got {
			core := r.Fwd[2] // host, edge→agg, agg→core: one such link per core switch
			if seen[core] {
				t.Fatalf("duplicate path pick %v", got)
			}
			seen[core] = true
		}
	}
	if got := ft.pickRoutes(rng, 0, 1, 8); len(got) != 1 {
		t.Fatalf("same-edge picks %d, want 1", len(got))
	}
}

func TestFatTreeOversubscription(t *testing.T) {
	ft := newFatTree(FatTreeConfig{K: 4, Oversubscription: 4}, 5, 0, sim.Second)
	// Edge uplinks run at 1/4 line rate; host and core links at full rate.
	rate := func(l int) int64 { return ft.Links[l].Queue.RateBps() }
	if got := rate(ft.edgeUp(0, 0, 0)); got != 25_000_000 {
		t.Fatalf("edge uplink %d, want 25M", got)
	}
	if got := rate(ft.hostUp(0)); got != 100_000_000 {
		t.Fatalf("host link %d", got)
	}
	if got := rate(ft.aggUp(0, 0, 0)); got != 100_000_000 {
		t.Fatalf("core link %d", got)
	}
}

func TestFatTreePathToSelfPanics(t *testing.T) {
	ft := smallTree(6, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ft.route(3, 3, 0)
}

func TestFatTreeTwoFlowsShareCoreFairly(t *testing.T) {
	ft := smallTree(7, 3)
	// Two flows from different sources into the same destination host link:
	// they contend at hostDown[8]; both should progress.
	a := bulk(ft, "a", ft.route(0, 8, 0), 0)
	b := bulk(ft, "b", ft.route(4, 8, 1), sim.Millisecond)
	runClean(t, ft.Net)
	ga, gb := a.GoodputBytes(), b.GoodputBytes()
	if ga == 0 || gb == 0 {
		t.Fatalf("starvation: %d vs %d", ga, gb)
	}
	total := float64(ga+gb) * 8 / 1e6 / 3
	if total < 75 {
		t.Fatalf("shared-link utilization %.1f Mb/s", total)
	}
}

// TestFatTreeInvariantsHold runs the §VI-B workloads at K=4 under every
// Net.Run check, on the plain and the 4:1 fabric. Every queue of the fabric
// carries some flows' data and other flows' ACKs, so the conservation sum
// only closes if ACKs queued and dropped in forward queues are counted; the
// short flows join mid-run.
func TestFatTreeInvariantsHold(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FatTreeConfig
		load FatTreeLoad
	}{
		{"plain/olia", FatTreeConfig{K: 4}, FatTreeLoad{Algorithm: "olia", Subflows: 4}},
		{"plain/tcp", FatTreeConfig{K: 4}, FatTreeLoad{Algorithm: AlgoTCP}},
		{"4to1/lia+arrivals", FatTreeConfig{K: 4, Oversubscription: 4}, FatTreeLoad{
			Algorithm: "lia", Subflows: 4,
			ShortBytes: 70_000, ShortGap: 200 * sim.Millisecond, Drain: sim.Second,
		}},
		{"plain/tcp+arrivals", FatTreeConfig{K: 4}, FatTreeLoad{
			Algorithm:  AlgoTCP,
			ShortBytes: 70_000, ShortGap: 50 * sim.Millisecond, Drain: sim.Second,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := PaperFatTree(tc.cfg, tc.load, 11, 250*sim.Millisecond, 2*sim.Second)
			rep := runClean(t, ft.Net)
			var drops int64
			for _, q := range rep.Queues {
				drops += q.Total.DroppedPkts
			}
			if drops == 0 {
				t.Fatal("no queue dropped anything: the run does not exercise the loss side of the conservation sum")
			}
			var acksOut, acksHome int64
			for _, f := range ft.Flows {
				for _, k := range f.Sinks {
					acksOut += k.AckPkts()
				}
				acksHome += f.AckTap.Pkts
			}
			if acksOut == acksHome {
				t.Fatal("every ACK reached its sender: none was queued or dropped in another flow's forward queue at the end")
			}
			var shorts int
			for _, g := range ft.Short {
				shorts += g.Started
			}
			if tc.load.ShortBytes > 0 && shorts == 0 {
				t.Fatal("no short flow arrived")
			}
			if want := ft.NumHosts() - len(ft.Short) + shorts; len(rep.Flows) != want {
				t.Fatalf("%d flows reported, want %d long + %d short", len(rep.Flows), ft.NumHosts()-len(ft.Short), shorts)
			}
		})
	}
}

func TestPermutationIsDerangement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 64; n *= 2 {
		p := derangement(rng, n)
		if len(p) != n {
			t.Fatalf("len %d", len(p))
		}
		seen := make([]bool, n)
		for i, v := range p {
			if v == i {
				t.Fatalf("fixed point at %d", i)
			}
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
		}
	}
}

func TestPermutationPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	derangement(rand.New(rand.NewSource(1)), 1)
}

// Property: every permutation is a derangement for random seeds and sizes.
func TestPropertyPermutation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		size := int(n%30) + 2
		p := derangement(rand.New(rand.NewSource(seed)), size)
		seen := make([]bool, size)
		for i, v := range p {
			if v == i || v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
