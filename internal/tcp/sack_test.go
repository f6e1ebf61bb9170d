package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/alloctest"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

func newBareSrc() *Src {
	return NewSrc(sim.New(1), 0, "t", Config{})
}

// rangesOf returns a copy of r's ranges, lowest first.
func rangesOf(r *netem.Ranges) []netem.Block {
	return r.Head(make([]netem.Block, r.Len()))
}

func TestInsertBlockMergesOverlaps(t *testing.T) {
	s := newBareSrc()
	s.insertBlock(netem.Block{Start: 3000, End: 4500})
	s.insertBlock(netem.Block{Start: 6000, End: 7500})
	s.insertBlock(netem.Block{Start: 4500, End: 6000}) // bridges both
	if s.scoreboard.Len() != 1 {
		t.Fatalf("scoreboard %v, want single merged block", rangesOf(&s.scoreboard))
	}
	if s.scoreboard.Block(0) != (netem.Block{Start: 3000, End: 7500}) {
		t.Fatalf("merged block %v", s.scoreboard.Block(0))
	}
}

func TestInsertBlockKeepsDisjointSorted(t *testing.T) {
	s := newBareSrc()
	s.insertBlock(netem.Block{Start: 9000, End: 10500})
	s.insertBlock(netem.Block{Start: 1500, End: 3000})
	s.insertBlock(netem.Block{Start: 4500, End: 6000})
	if s.scoreboard.Len() != 3 {
		t.Fatalf("scoreboard %v", rangesOf(&s.scoreboard))
	}
	for i := 1; i < s.scoreboard.Len(); i++ {
		if s.scoreboard.Block(i-1).End >= s.scoreboard.Block(i).Start {
			t.Fatalf("not disjoint-sorted: %v", rangesOf(&s.scoreboard))
		}
	}
}

func TestPruneScoreboard(t *testing.T) {
	s := newBareSrc()
	s.insertBlock(netem.Block{Start: 1500, End: 3000})
	s.insertBlock(netem.Block{Start: 4500, End: 7500})
	s.lastAcked = 6000
	s.scoreboard.ClipFront(s.lastAcked)
	if s.scoreboard.Len() != 1 {
		t.Fatalf("scoreboard %v", rangesOf(&s.scoreboard))
	}
	if s.scoreboard.Block(0) != (netem.Block{Start: 6000, End: 7500}) {
		t.Fatalf("pruned block %v (partial overlap must clip at lastAcked)", s.scoreboard.Block(0))
	}
}

func TestNextHoleWalksGaps(t *testing.T) {
	s := newBareSrc()
	s.lastAcked = 1500
	s.insertBlock(netem.Block{Start: 3000, End: 4500})
	s.insertBlock(netem.Block{Start: 7500, End: 9000})
	// First hole: at lastAcked itself.
	if h := s.nextHole(); h != 1500 {
		t.Fatalf("hole %d, want 1500", h)
	}
	s.retxNext = 3000 // first hole repaired
	if h := s.nextHole(); h != 4500 {
		t.Fatalf("hole %d, want 4500", h)
	}
	s.retxNext = 7500
	// Beyond the highest SACK block, holes are unknown.
	if h := s.nextHole(); h != -1 {
		t.Fatalf("hole %d, want -1", h)
	}
}

func TestNextHoleNoSACKFallback(t *testing.T) {
	s := newBareSrc()
	s.lastAcked = 3000
	s.inRecovery = true
	s.recoverSeq = 9000
	s.retxNext = 0
	if h := s.nextHole(); h != 3000 {
		t.Fatalf("fallback hole %d, want lastAcked", h)
	}
	s.retxNext = 4500 // already retransmitted once: no second blind shot
	if h := s.nextHole(); h != -1 {
		t.Fatalf("hole %d, want -1", h)
	}
}

// Property: after any sequence of insertions the scoreboard is sorted,
// disjoint, and covers exactly the union of the inserted ranges.
func TestPropertyScoreboardIntervalSet(t *testing.T) {
	f := func(ops []uint16) bool {
		s := newBareSrc()
		covered := map[int64]bool{}
		for _, op := range ops {
			start := int64(op%50) * 100
			length := int64(op/50%20+1) * 100
			s.insertBlock(netem.Block{Start: start, End: start + length})
			for b := start; b < start+length; b += 100 {
				covered[b] = true
			}
		}
		// Sorted and disjoint.
		for i := 1; i < s.scoreboard.Len(); i++ {
			if s.scoreboard.Block(i-1).End >= s.scoreboard.Block(i).Start {
				return false
			}
		}
		// Exact coverage, checked at 100-byte granularity.
		var total int64
		for _, b := range rangesOf(&s.scoreboard) {
			total += b.End - b.Start
		}
		if total != int64(len(covered))*100 {
			return false
		}
		for b := range covered {
			found := false
			for _, blk := range rangesOf(&s.scoreboard) {
				if b >= blk.Start && b < blk.End {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// Property: mergeBlock clips below lastAcked and never produces blocks at or
// below the cumulative ACK point.
func TestPropertyMergeSackClips(t *testing.T) {
	f := func(ack uint16, ops []uint16) bool {
		s := newBareSrc()
		s.lastAcked = int64(ack) * 10
		var blocks []netem.Block
		for _, op := range ops {
			start := int64(op%200) * 50
			blocks = append(blocks, netem.Block{Start: start, End: start + 500})
		}
		for _, b := range blocks {
			s.mergeBlock(b)
		}
		for _, b := range rangesOf(&s.scoreboard) {
			if b.Start < s.lastAcked || b.End <= b.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: random i.i.d. loss at various rates. The flow must
// always make progress — no deadlock, no livelock — and goodput must degrade
// gracefully with loss.
func TestRandomLossRobustness(t *testing.T) {
	prev := int64(-1)
	for _, lossPct := range []int{1, 5, 10, 20} {
		s := sim.New(int64(lossPct))
		rng := s.Rand()
		shim := nodeFunc(func(p *netem.Packet) {
			if !p.Ack && rng.Intn(100) < lossPct {
				return // drop
			}
			p.SendOn()
		})
		link := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
		rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
		src := NewSrc(s, 0, "lossy", Config{})
		sink := NewSink(s)
		src.SetRoute(netem.NewRoute(shim, link.Q, link.P, sink))
		sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
		src.Start(0)
		s.RunUntil(30 * sim.Second)
		got := sink.GoodputBytes()
		if got < 100_000 {
			t.Fatalf("%d%% loss: stalled at %d bytes", lossPct, got)
		}
		if prev >= 0 && got > prev*11/10 {
			t.Fatalf("%d%% loss: goodput %d not degrading (prev %d)", lossPct, got, prev)
		}
		prev = got
	}
}

// Failure injection: ACK-path loss. Cumulative ACKs make the flow robust to
// heavy reverse-path loss.
func TestAckLossRobustness(t *testing.T) {
	s := sim.New(9)
	rng := s.Rand()
	shim := nodeFunc(func(p *netem.Packet) {
		if p.Ack && rng.Intn(100) < 30 {
			return
		}
		p.SendOn()
	})
	link := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
	src := NewSrc(s, 0, "ackloss", Config{})
	sink := NewSink(s)
	src.SetRoute(netem.NewRoute(link.Q, link.P, sink))
	sink.SetRoute(netem.NewRoute(shim, rev.Q, rev.P, src))
	src.Start(0)
	s.RunUntil(20 * sim.Second)
	if sink.GoodputBytes() < 5_000_000 {
		t.Fatalf("30%% ACK loss crushed goodput: %d bytes", sink.GoodputBytes())
	}
}

// A receive-window cap (MaxCwndPkts) must bound the achieved rate at
// roughly cap/RTT.
func TestReceiveWindowLimit(t *testing.T) {
	d := newDumbbell(5, 100_000_000, 50*sim.Millisecond, netem.QueueDropTail, Config{MaxCwndPkts: 10})
	d.src.Start(0)
	d.s.RunUntil(20 * sim.Second)
	// 10 pkts per 100 ms RTT = 1.5 MB over 20 s · (1500B) → ~1.2 Mb/s.
	gotMbps := float64(d.sink.GoodputBytes()) * 8 / 20e6
	wantMbps := 10.0 * 1500 * 8 / 0.1 / 1e6 // 1.2
	if gotMbps > wantMbps*1.15 {
		t.Fatalf("rwnd-capped flow at %.2f Mb/s, cap predicts %.2f", gotMbps, wantMbps)
	}
	if gotMbps < wantMbps*0.6 {
		t.Fatalf("rwnd-capped flow only %.2f Mb/s, cap predicts %.2f", gotMbps, wantMbps)
	}
}

// TestLossPathZeroAlloc locks loss recovery at zero allocations once warm:
// TestTransitZeroAlloc and TestControllersZeroAlloc never drop a packet, so
// neither sees the reorder buffer, the SACK report or the scoreboard. A flow
// crosses 3 % random loss and a route that goes dark for 400 ms every five
// seconds; a second ten-second stretch of it — fast recoveries, SACK-driven
// retransmissions and timeouts included — must not allocate at all.
func TestLossPathZeroAlloc(t *testing.T) {
	s := sim.New(3)
	dark := nodeFunc(func(p *netem.Packet) {
		if s.Now()%(5*sim.Second) < 400*sim.Millisecond {
			p.Free()
			return
		}
		p.SendOn()
	})
	cfg := netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 50}
	fwd, rev := netem.NewLink(s, cfg, "f"), netem.NewLink(s, cfg, "r")
	src := NewSrc(s, 0, "lossy", Config{})
	sink := NewSink(s)
	src.SetRoute(netem.NewRoute(dark, netem.NewRandomLoss(s, 0.03), fwd.Q, fwd.P, sink))
	sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
	src.Start(0)
	var st0 Stats
	var pkts0 int64
	stretch := func() {
		st0, pkts0 = src.Stats(), sink.RecvPkts()
		s.RunUntil(s.Now() + 10*sim.Second)
	}
	stretch() // pools, scoreboard and reorder buffer reach their high-water marks

	// One run after a warm-up call: the stretch's exact allocation count,
	// with the stacks that allocated when it is not zero.
	allocs, stacks := alloctest.Count(stretch)
	st, pkts := src.Stats(), sink.RecvPkts()-pkts0
	if allocs != 0 {
		t.Fatalf("%d allocations over %d delivered packets, want 0; allocated at:\n%s", allocs, pkts, stacks)
	}
	if st.FastRecover-st0.FastRecover < 10 || st.Timeouts == st0.Timeouts || st.RetxPkts-st0.RetxPkts < 50 || pkts < 1000 {
		t.Fatalf("measured stretch missed the loss path: %d fast recoveries, %d timeouts, %d retransmissions, %d packets delivered",
			st.FastRecover-st0.FastRecover, st.Timeouts-st0.Timeouts, st.RetxPkts-st0.RetxPkts, pkts)
	}
}
