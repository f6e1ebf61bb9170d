package topo

import (
	"math/rand"
	"testing"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/workload"
)

func smallTree(seed int64) *FatTree {
	return NewFatTree(FatTreeConfig{K: 4, Seed: seed})
}

func TestFatTreeDimensions(t *testing.T) {
	ft := smallTree(1)
	if ft.NumHosts() != 16 {
		t.Fatalf("hosts %d, want 16", ft.NumHosts())
	}
	if ft.NumCores() != 4 {
		t.Fatalf("cores %d, want 4", ft.NumCores())
	}
	// Paper-scale check without building: K=8 → 128 hosts, 16 cores.
	big := FatTreeConfig{K: 8}
	big.fill()
	if h := big.K * big.K * big.K / 4; h != 128 {
		t.Fatalf("K=8 hosts %d", h)
	}
}

func TestFatTreeDefaultsMatchPaper(t *testing.T) {
	var cfg FatTreeConfig
	cfg.fill()
	if cfg.K != 8 || cfg.LinkRateBps != 100_000_000 || cfg.QueuePkts != 100 {
		t.Fatalf("defaults %+v", cfg)
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFatTree(FatTreeConfig{K: 3})
}

func TestFatTreeNumPaths(t *testing.T) {
	ft := smallTree(1)
	// Hosts 0 and 1 share an edge switch; 0 and 2 share a pod; 0 and 8 are
	// cross-pod (pod 0 vs pod 2).
	if got := ft.NumPaths(0, 1); got != 1 {
		t.Fatalf("same-edge paths %d", got)
	}
	if got := ft.NumPaths(0, 2); got != 2 {
		t.Fatalf("same-pod paths %d", got)
	}
	if got := ft.NumPaths(0, 8); got != 4 {
		t.Fatalf("cross-pod paths %d", got)
	}
}

func TestFatTreeQueueInventory(t *testing.T) {
	ft := smallTree(1)
	// K=4: 32 agg-core links.
	if got := len(ft.CoreLinks()); got != 32 {
		t.Fatalf("core links %d, want 32", got)
	}
}

func TestFatTreePathDeliversAtLineRate(t *testing.T) {
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 8}} {
		ft := smallTree(2)
		path := ft.Path(pair[0], pair[1], 0)
		src, sink := workload.NewBulk(ft.S, 1, "bulk", path, tcp.Config{})
		src.Start(0)
		ft.S.RunUntil(2 * sim.Second)
		mbits := float64(sink.GoodputBytes()) * 8 / 1e6 / 2
		if mbits < 80 {
			t.Errorf("pair %v: %.1f Mb/s, want ≈100", pair, mbits)
		}
		if mbits > 100 {
			t.Errorf("pair %v: %.1f Mb/s exceeds line rate", pair, mbits)
		}
	}
}

func TestFatTreeDistinctECMPPathsAreDisjointAtCore(t *testing.T) {
	ft := smallTree(3)
	// Two flows between the same cross-pod pair on different cores must not
	// share any aggregation-core queue.
	p0 := ft.Path(0, 8, 0)
	p1 := ft.Path(0, 8, 1)
	seen := map[any]bool{}
	for _, h := range p0.Fwd {
		seen[h] = true
	}
	shared := 0
	for _, h := range p1.Fwd {
		if seen[h] {
			shared++
		}
	}
	// They necessarily share the host links (2 nodes each end = 4 hops as
	// Q+P pairs = 4 shared); core 0 and 1 share the same agg (j = c/2 = 0),
	// so the edge-agg links are also shared. Cores 0 and 2 differ in agg.
	p2 := ft.Path(0, 8, 2)
	shared02 := 0
	for _, h := range p2.Fwd {
		if seen[h] {
			shared02++
		}
	}
	if shared02 >= shared {
		t.Fatalf("core 2 path should be more disjoint than core 1 path (%d vs %d shared)", shared02, shared)
	}
	// Host links only: hostUp/hostDown are Q+P pairs → 4 shared nodes.
	if shared02 != 4 {
		t.Fatalf("cross-agg paths share %d nodes, want 4 (host links only)", shared02)
	}
}

func TestFatTreePickPathsDistinct(t *testing.T) {
	ft := smallTree(4)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		got := ft.PickPaths(rng, 0, 8, 8)
		if len(got) != 4 { // only 4 cores exist at K=4
			t.Fatalf("picked %d, want clamp to 4", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if seen[v] {
				t.Fatalf("duplicate path pick %v", got)
			}
			seen[v] = true
		}
	}
	if got := ft.PickPaths(rng, 0, 1, 8); len(got) != 1 {
		t.Fatalf("same-edge picks %d, want 1", len(got))
	}
}

func TestFatTreeOversubscription(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{K: 4, Oversubscription: 4, Seed: 5})
	// Edge uplinks run at 1/4 line rate; host and core links at full rate.
	if got := ft.edgeUp[0][0][0].Q.RateBps(); got != 25_000_000 {
		t.Fatalf("edge uplink %d, want 25M", got)
	}
	if got := ft.hostUp[0].Q.RateBps(); got != 100_000_000 {
		t.Fatalf("host link %d", got)
	}
	if got := ft.aggUp[0][0][0].Q.RateBps(); got != 100_000_000 {
		t.Fatalf("core link %d", got)
	}
}

func TestFatTreePathToSelfPanics(t *testing.T) {
	ft := smallTree(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ft.Path(3, 3, 0)
}

func TestFatTreeTwoFlowsShareCoreFairly(t *testing.T) {
	ft := smallTree(7)
	// Two flows from different sources into the same destination host link:
	// they contend at hostDown[8]; both should progress.
	pA := ft.Path(0, 8, 0)
	pB := ft.Path(4, 8, 1)
	srcA, sinkA := workload.NewBulk(ft.S, 1, "a", pA, tcp.Config{})
	srcB, sinkB := workload.NewBulk(ft.S, 2, "b", pB, tcp.Config{})
	srcA.Start(0)
	srcB.Start(sim.Millisecond)
	ft.S.RunUntil(3 * sim.Second)
	ga, gb := sinkA.GoodputBytes(), sinkB.GoodputBytes()
	if ga == 0 || gb == 0 {
		t.Fatalf("starvation: %d vs %d", ga, gb)
	}
	total := float64(ga+gb) * 8 / 1e6 / 3
	if total < 75 {
		t.Fatalf("shared-link utilization %.1f Mb/s", total)
	}
}
