package scenario

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/sim"
)

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

// k4 is the bare K=4 fabric, its defaults filled in.
func k4() FatTreeConfig {
	c := FatTreeConfig{K: 4}
	c.fill()
	return c
}

// treeSpec is the K=4 fabric measured over [0, secs] carrying one
// long-lived TCP flow over each path, each started at its offset.
func treeSpec(seed int64, secs float64, paths []PathSpec, startSec ...float64) *Spec {
	sp := &Spec{Name: "tree", Seed: seed, DurationSec: secs, Links: k4().links(), Paths: paths}
	for i := range paths {
		sp.Flows = append(sp.Flows, FlowSpec{Name: "bulk", Algorithm: AlgoTCP, Paths: []int{i}, StartSec: startSec[i]})
	}
	return sp
}

// shortLoad is the §VI-B2 load at K=4: TCP long flows on every third
// host, ShortBytes-byte flows gap apart on average from the others.
func shortLoad(bytes int64, gap, drain sim.Time) FatTreeLoad {
	return FatTreeLoad{Algorithm: AlgoTCP, ShortBytes: bytes, ShortGap: gap, Drain: drain}
}

// shortFlows returns the indices of sp's short flows.
func shortFlows(sp *Spec) []int {
	var out []int
	for i := range sp.Flows {
		if sp.Flows[i].FlowBytes > 0 {
			out = append(out, i)
		}
	}
	return out
}

func TestFatTreeDimensions(t *testing.T) {
	c := k4()
	if c.NumHosts() != 16 {
		t.Fatalf("hosts %d, want 16", c.NumHosts())
	}
	if c.NumCores() != 4 {
		t.Fatalf("cores %d, want 4", c.NumCores())
	}
	// Paper scale, from K alone: K=8 → 128 hosts, 16 cores.
	big := FatTreeConfig{K: 8}
	if big.NumHosts() != 128 || big.NumCores() != 16 {
		t.Fatalf("K=8: %d hosts, %d cores", big.NumHosts(), big.NumCores())
	}
}

func TestFatTreeDefaultsMatchPaper(t *testing.T) {
	var cfg FatTreeConfig
	cfg.fill()
	if cfg.K != 8 || cfg.Oversubscription != 1 {
		t.Fatalf("defaults %+v", cfg)
	}
	// The defaults reach the links as htsim's exact values.
	n := mustCompile(t, PaperFatTree(FatTreeConfig{K: 4}, FatTreeLoad{Algorithm: AlgoTCP}, 1, 0, sim.Second))
	l := n.Links[0]
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
	PaperFatTree(FatTreeConfig{K: 3}, FatTreeLoad{Algorithm: AlgoTCP}, 1, 0, sim.Second)
}

func TestFatTreeNumPaths(t *testing.T) {
	c := k4()
	// Hosts 0 and 1 share an edge switch; 0 and 2 share a pod; 0 and 8 are
	// cross-pod (pod 0 vs pod 2). A path crosses 2, 4 or 6 links each way.
	for _, tc := range []struct{ dst, paths, hops int }{{1, 1, 2}, {2, 2, 4}, {8, 4, 6}} {
		paths, hops := c.ecmp(0, tc.dst)
		if paths != tc.paths || hops != tc.hops {
			t.Errorf("0→%d: %d paths of %d hops, want %d of %d", tc.dst, paths, hops, tc.paths, tc.hops)
		}
		if p := c.path(0, tc.dst, 0, nil); len(p.Links) != hops || len(p.Rev) != hops {
			t.Errorf("0→%d: a path of %d links and %d back, want %d each way", tc.dst, len(p.Links), len(p.Rev), hops)
		}
	}
}

func TestFatTreeQueueInventory(t *testing.T) {
	c := k4()
	// K=4: 32 host links, 32 edge-agg links, 32 agg-core links.
	if got := len(c.links()); got != 96 {
		t.Fatalf("links %d, want 96", got)
	}
	if got := len(c.CoreLinks()); got != 32 {
		t.Fatalf("core links %d, want 32", got)
	}
}

func TestFatTreePathDeliversAtLineRate(t *testing.T) {
	c := k4()
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 8}} {
		rep := mustRun(t, treeSpec(2, 2, []PathSpec{c.path(pair[0], pair[1], 0, nil)}, 0))
		mbits := float64(rep.Flows[0].GoodputBytes) * 8 / 1e6 / 2
		if mbits < 80 {
			t.Errorf("pair %v: %.1f Mb/s, want ≈100", pair, mbits)
		}
		if mbits > 100 {
			t.Errorf("pair %v: %.1f Mb/s exceeds line rate", pair, mbits)
		}
	}
}

func TestFatTreeDistinctECMPPathsAreDisjointAtCore(t *testing.T) {
	c := k4()
	// Two flows between the same cross-pod pair on different cores must not
	// share any aggregation-core link.
	seen := map[int]bool{}
	for _, l := range c.path(0, 8, 0, nil).Links {
		seen[l] = true
	}
	shared := func(via int) (n int) {
		for _, l := range c.path(0, 8, via, nil).Links {
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
	p, back := c.path(0, 8, 2, nil), c.path(8, 0, 2, nil)
	for i := range p.Rev {
		if p.Rev[i] != back.Links[i] {
			t.Fatalf("reverse route %v is not the forward route of the mirror pair %v", p.Rev, back.Links)
		}
	}
}

// TestFatTreePickPathsDistinct: a long flow asking for more subflows than
// its host pair has ECMP paths gets every path once, and the paths of one
// flow never climb through the same link.
func TestFatTreePickPathsDistinct(t *testing.T) {
	c := k4()
	for seed := int64(1); seed <= 20; seed++ {
		sp := PaperFatTree(c, FatTreeLoad{Algorithm: "olia", Subflows: 8}, seed, 0, sim.Second)
		if len(sp.Flows) != c.NumHosts() {
			t.Fatalf("seed %d: %d flows, want one per host", seed, len(sp.Flows))
		}
		for _, f := range sp.Flows {
			dst := sp.Paths[f.Paths[0]].Links[len(sp.Paths[f.Paths[0]].Links)-1] / 2 // the host of the last down link
			src := sp.Paths[f.Paths[0]].Links[0] / 2
			if avail, _ := c.ecmp(src, dst); len(f.Paths) != avail {
				t.Fatalf("seed %d: %s→h%d over %d paths, want all %d", seed, f.Name, dst, len(f.Paths), avail)
			}
			seen := map[int]bool{}
			for _, pi := range f.Paths {
				// The highest link up: agg→core across pods, edge→agg within one.
				links := sp.Paths[pi].Links
				if top := links[len(links)/2-1]; seen[top] {
					t.Fatalf("seed %d: %s picks link %d twice", seed, f.Name, top)
				} else {
					seen[top] = true
				}
			}
		}
	}
}

func TestFatTreeOversubscription(t *testing.T) {
	c := FatTreeConfig{K: 4, Oversubscription: 4}
	n := mustCompile(t, PaperFatTree(c, FatTreeLoad{Algorithm: AlgoTCP}, 5, 0, sim.Second))
	// Edge uplinks run at 1/4 line rate; host and core links at full rate.
	rate := func(l int) int64 { return n.Links[l].Queue.RateBps() }
	if got := rate(c.edgeUp(0, 0, 0)); got != 25_000_000 {
		t.Fatalf("edge uplink %d, want 25M", got)
	}
	if got := rate(c.hostUp(0)); got != 100_000_000 {
		t.Fatalf("host link %d", got)
	}
	if got := rate(c.aggUp(0, 0, 0)); got != 100_000_000 {
		t.Fatalf("core link %d", got)
	}
}

func TestFatTreePathToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k4().path(3, 3, 0, nil)
}

func TestFatTreeTwoFlowsShareCoreFairly(t *testing.T) {
	c := k4()
	// Two flows from different sources into the same destination host link:
	// they contend at hostDown[8]; both should progress.
	rep := mustRun(t, treeSpec(7, 3, []PathSpec{c.path(0, 8, 0, nil), c.path(4, 8, 1, nil)}, 0, 0.001))
	ga, gb := rep.Flows[0].GoodputBytes, rep.Flows[1].GoodputBytes
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
// only closes if ACKs queued and dropped in forward queues are counted, and
// no shared return link is built.
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
		{"plain/tcp+arrivals", FatTreeConfig{K: 4}, shortLoad(70_000, 50*sim.Millisecond, sim.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := PaperFatTree(tc.cfg, tc.load, 11, 250*sim.Millisecond, 2*sim.Second)
			n := mustCompile(t, sp)
			if n.Rev != nil {
				t.Fatal("a shared return link was built though every path has its own")
			}
			rep := runClean(t, n)
			var drops int64
			for _, q := range rep.Queues {
				drops += q.Total.DroppedPkts
			}
			if drops == 0 {
				t.Fatal("no queue dropped anything: the run does not exercise the loss side of the conservation sum")
			}
			var acksOut, acksHome int64
			for _, f := range n.Flows {
				for _, k := range f.Sinks {
					acksOut += k.AckPkts()
				}
				acksHome += f.AckTap.Pkts
			}
			if acksOut == acksHome {
				t.Fatal("every ACK reached its sender: none was queued or dropped in another flow's forward queue at the end")
			}
			shorts := len(shortFlows(sp))
			if tc.load.ShortBytes > 0 && shorts == 0 {
				t.Fatal("no short flow arrived")
			}
			long := n.Flows[:len(n.Flows)-shorts]
			if want := (k4().NumHosts() + 2) / 3; tc.load.ShortBytes > 0 && len(long) != want {
				t.Fatalf("%d long flows, want one per third host (%d)", len(long), want)
			}
			if len(rep.Flows) != len(sp.Flows) {
				t.Fatalf("%d flows reported, %d in the spec", len(rep.Flows), len(sp.Flows))
			}
		})
	}
}

// TestNewBulkTransfers: a path with its own reverse route carries a bulk
// transfer at line rate, and the network builds no shared return link.
func TestNewBulkTransfers(t *testing.T) {
	ls := LinkSpec{RateMbps: 10, DelayMs: 5, Queue: QueueDropTail, BufferPkts: 1000}
	n := mustCompile(t, &Spec{
		Name: "duplex", Seed: 1, DurationSec: 10,
		Links: []LinkSpec{ls, ls},
		Paths: []PathSpec{{Links: []int{0}, Rev: []int{1}}},
		Flows: []FlowSpec{{Name: "bulk", Algorithm: AlgoTCP, Paths: []int{0}}},
	})
	rep := runClean(t, n)
	if n.Rev != nil {
		t.Fatal("a shared return link was built though the only path has its own")
	}
	if rep.Flows[0].GoodputBytes < 8_000_000 {
		t.Fatalf("bulk goodput %d", rep.Flows[0].GoodputBytes)
	}
	if rep.Queues[1].Total.SentPkts == 0 {
		t.Fatal("no ACK crossed the reverse link")
	}
}

// TestShortFlowsGenerateAndComplete: a short host's flows arrive about one
// per mean gap, and nearly all complete, in plausible times.
func TestShortFlowsGenerateAndComplete(t *testing.T) {
	sp := PaperFatTree(FatTreeConfig{K: 4}, shortLoad(70_000, 200*sim.Millisecond, 2*sim.Second), 3, 0, 6*sim.Second)
	rep := mustRun(t, sp)
	short := shortFlows(sp)
	// 10 short hosts, ~20 arrivals each over 4 s at one per 200 ms.
	if len(short) < 100 || len(short) > 300 {
		t.Fatalf("started %d flows, expected ≈200", len(short))
	}
	done := 0
	for _, i := range short {
		if ct := rep.Flows[i].CompletionSec; ct != 0 {
			done++
			if ct < 0 || ct > 5 {
				t.Fatalf("implausible completion time %v s", ct)
			}
		}
	}
	if done < len(short)-2 {
		t.Fatalf("completed %d of %d", done, len(short))
	}
}

// TestShortFlowsMeanArrivalRate: each short host's arrivals are a Poisson
// process of the mean gap; the spec alone shows it, nothing runs.
func TestShortFlowsMeanArrivalRate(t *testing.T) {
	sp := PaperFatTree(FatTreeConfig{K: 4}, shortLoad(7_000, 100*sim.Millisecond, sim.Second), 4, 0, 61*sim.Second)
	perHost := map[string]int{}
	for _, i := range shortFlows(sp) {
		perHost[sp.Flows[i].Name]++
	}
	if len(perHost) != 10 {
		t.Fatalf("%d short hosts, want 10", len(perHost))
	}
	for host, n := range perHost {
		// 600 expected over 60 s; Poisson stdev ~24.5, allow ±5σ.
		if n < 480 || n > 720 {
			t.Errorf("%s started %d, want ≈600", host, n)
		}
	}
}

// TestShortFlowsActiveAccounting: every short flow that starts finishes
// within the drain, and every one is reported.
func TestShortFlowsActiveAccounting(t *testing.T) {
	sp := PaperFatTree(FatTreeConfig{K: 4}, shortLoad(15_000, 50*sim.Millisecond, 2*sim.Second), 5, 0, 3*sim.Second)
	rep := mustRun(t, sp)
	if len(rep.Flows) != len(sp.Flows) {
		t.Fatalf("%d flows reported, %d in the spec", len(rep.Flows), len(sp.Flows))
	}
	for _, i := range shortFlows(sp) {
		if rep.Flows[i].CompletionSec == 0 {
			t.Fatalf("flow %d (%s, started %gs) did not complete within the drain", i, sp.Flows[i].Name, sp.Flows[i].StartSec)
		}
	}
}

// TestShortFlowsStopAtDrain: no short flow starts later than Drain before
// the window closes, the first arrival of a host included, even when the
// arrival window is shorter than the mean gap.
func TestShortFlowsStopAtDrain(t *testing.T) {
	warmup, window, drain := 250*sim.Millisecond, 50*sim.Millisecond, 2*sim.Second
	sp := PaperFatTree(FatTreeConfig{K: 4, Oversubscription: 4},
		FatTreeLoad{Algorithm: "olia", Subflows: 2, ShortBytes: 70_000, ShortGap: 200 * sim.Millisecond, Drain: drain},
		42, warmup, window+drain)
	short := shortFlows(sp)
	if len(short) == 0 {
		t.Fatal("no short flow: the window checks nothing")
	}
	for _, i := range short {
		if at := sim.Seconds(sp.Flows[i].StartSec); at > warmup+window || at < warmup {
			t.Errorf("%s starts at %v, outside [%v, %v]", sp.Flows[i].Name, at, warmup, warmup+window)
		}
	}
}

func TestShortFlowsBadParamsPanic(t *testing.T) {
	for name, load := range map[string]FatTreeLoad{
		"negative size": shortLoad(-1, sim.Second, 0),
		"no gap":        shortLoad(100, 0, 0),
		"negative gap":  shortLoad(100, -sim.Second, 0),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			PaperFatTree(FatTreeConfig{K: 4}, load, 1, 0, sim.Second)
		}()
	}
}

// TestExactSecRoundTrips: every time the fat tree emits survives Compile's
// sim.Seconds to the nanosecond, over the whole range a Spec allows.
func TestExactSecRoundTrips(t *testing.T) {
	const maxNs = int64(MaxSpecSec * 1e9)
	back := func(ns int64) bool {
		return sim.Seconds(sim.FromNanos(float64(ns)).ExactSec()) == sim.FromNanos(float64(ns))
	}
	for _, ns := range []int64{0, 1, 999_999_999, maxNs - 1, maxNs} {
		if !back(ns) {
			t.Errorf("%d ns does not round-trip", ns)
		}
	}
	f := func(u uint64) bool { return back(int64(u % uint64(maxNs+1))) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100_000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
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
