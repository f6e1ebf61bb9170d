package tcp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// dumbbell wires one TCP flow across a single bottleneck link (forward) and
// an uncongested reverse path for ACKs.
type dumbbell struct {
	s    *sim.Sim
	src  *Src
	sink *Sink
	q    netem.Queue
}

func newDumbbell(seed int64, rateBps int64, owd sim.Time, kind netem.QueueKind, cfg Config) *dumbbell {
	s := sim.New(seed)
	fwdLink := netem.NewLink(s, netem.LinkConfig{RateBps: rateBps, Delay: owd, Kind: kind}, "fwd")
	revLink := netem.NewLink(s, netem.LinkConfig{RateBps: rateBps, Delay: owd, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "rev")
	src := NewSrc(s, 0, "flow1", cfg)
	sink := NewSink(s)
	src.SetRoute(netem.NewRoute(fwdLink.Q, fwdLink.P, sink))
	sink.SetRoute(netem.NewRoute(revLink.Q, revLink.P, src))
	return &dumbbell{s: s, src: src, sink: sink, q: fwdLink.Q}
}

func TestSingleFlowFillsBottleneck(t *testing.T) {
	for _, kind := range []netem.QueueKind{netem.QueueRED, netem.QueueDropTail} {
		d := newDumbbell(1, 10_000_000, 40*sim.Millisecond, kind, Config{})
		d.src.Start(0)
		d.s.RunUntil(30 * sim.Second)
		gotBps := float64(d.sink.GoodputBytes()) * 8 / 30
		// A single Reno flow on a 10 Mb/s link with ~66-pkt BDP should
		// achieve at least 80% utilization over 30 s.
		if gotBps < 8e6 {
			t.Errorf("kind %v: goodput %.2f Mb/s, want > 8", kind, gotBps/1e6)
		}
		if gotBps > 10e6 {
			t.Errorf("kind %v: goodput %.2f Mb/s exceeds line rate", kind, gotBps/1e6)
		}
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	// Huge queue, no drops: watch the exponential phase.
	d := newDumbbell(1, 100_000_000, 40*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Start(0)
	d.s.RunUntil(90 * sim.Millisecond) // one RTT after first ACK round
	c1 := d.src.CwndPkts()
	d.s.RunUntil(170 * sim.Millisecond)
	c2 := d.src.CwndPkts()
	if c2 < 1.8*c1 {
		t.Fatalf("slow start did not double: %.1f -> %.1f pkts", c1, c2)
	}
	if d.src.InCA() {
		t.Fatal("should still be in slow start")
	}
}

func TestRTTEstimate(t *testing.T) {
	d := newDumbbell(1, 10_000_000, 40*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Start(0)
	d.s.RunUntil(2 * sim.Second)
	srtt := d.src.SRTT()
	// Propagation RTT is 80 ms; queueing adds some. The estimate must be in
	// a plausible band.
	if srtt < 0.080 || srtt > 0.400 {
		t.Fatalf("SRTT = %.3fs, want ~0.08-0.4", srtt)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	d := newDumbbell(1, 10_000_000, 40*sim.Millisecond, netem.QueueDropTail, Config{})
	// Drop exactly one specific data packet via a tiny queue? Instead use a
	// deterministic loss shim on the route.
	s := sim.New(1)
	link := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 40 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 40 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
	src := NewSrc(s, 0, "f", Config{})
	sink := NewSink(s)
	dropped := false
	shim := nodeFunc(func(p *netem.Packet) {
		// Drop the segment at byte 30000 exactly once.
		if !dropped && !p.Ack && p.Seq == 30000 && !p.Retx {
			dropped = true
			return
		}
		p.SendOn()
	})
	src.SetRoute(netem.NewRoute(shim, link.Q, link.P, sink))
	sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
	src.Start(0)
	s.RunUntil(5 * sim.Second)
	st := src.Stats()
	if !dropped {
		t.Fatal("loss never injected")
	}
	if st.FastRecover != 1 {
		t.Fatalf("fast recoveries = %d, want 1", st.FastRecover)
	}
	if st.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (should recover via dupACKs)", st.Timeouts)
	}
	if sink.CumAck() < 1_000_000 {
		t.Fatalf("flow stalled after loss: cumack %d", sink.CumAck())
	}
	_ = d
}

type nodeFunc func(*netem.Packet)

func (f nodeFunc) Recv(p *netem.Packet) { f(p) }

func TestTimeoutRecovery(t *testing.T) {
	// Black-hole the link for a while mid-flow; the source must RTO, back
	// off, and then resume.
	s := sim.New(1)
	blocked := false
	shim := nodeFunc(func(p *netem.Packet) {
		if blocked && !p.Ack {
			return
		}
		p.SendOn()
	})
	link := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
	src := NewSrc(s, 0, "f", Config{})
	sink := NewSink(s)
	src.SetRoute(netem.NewRoute(shim, link.Q, link.P, sink))
	sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
	src.Start(0)
	s.At(2*sim.Second, func() { blocked = true })
	s.At(4*sim.Second, func() { blocked = false })
	s.RunUntil(10 * sim.Second)
	st := src.Stats()
	if st.Timeouts == 0 {
		t.Fatal("expected at least one RTO")
	}
	before := sink.CumAck()
	s.RunUntil(15 * sim.Second)
	if sink.CumAck() <= before {
		t.Fatal("flow did not resume after black hole")
	}
}

func TestFiniteFlowCompletes(t *testing.T) {
	cfg := Config{FlowBytes: 70_000} // the paper's short-flow size
	d := newDumbbell(1, 100_000_000, 10*sim.Millisecond, netem.QueueDropTail, cfg)
	var completed *Src
	d.src.OnComplete = func(s *Src) { completed = s }
	d.src.Start(sim.Millisecond)
	d.s.RunUntil(5 * sim.Second)
	if completed == nil || !d.src.Done() {
		t.Fatal("flow did not complete")
	}
	if d.sink.GoodputBytes() != 70_000 {
		t.Fatalf("goodput %d, want 70000", d.sink.GoodputBytes())
	}
	ct := d.src.CompletionTime()
	if ct <= 0 || ct > sim.Second {
		t.Fatalf("completion time %v implausible", ct)
	}
	if d.src.AckedBytes() < 70_000 {
		t.Fatalf("acked %d", d.src.AckedBytes())
	}
}

func TestFiniteFlowTailSegment(t *testing.T) {
	// 70000 = 46*1500 + 1000: the tail segment is 1000 bytes and the sink
	// must account exactly.
	cfg := Config{FlowBytes: 70_000}
	d := newDumbbell(3, 10_000_000, 5*sim.Millisecond, netem.QueueDropTail, cfg)
	d.src.Start(0)
	d.s.RunUntil(10 * sim.Second)
	if !d.src.Done() {
		t.Fatal("not done")
	}
	if got := d.sink.CumAck(); got != 70_000 {
		t.Fatalf("cumack %d, want exactly 70000", got)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := sim.New(7)
	link := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 40 * sim.Millisecond, Kind: netem.QueueRED}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 40 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
	var sinks [2]*Sink
	for i := 0; i < 2; i++ {
		src := NewSrc(s, 0, "f", Config{})
		sink := NewSink(s)
		src.SetRoute(netem.NewRoute(link.Q, link.P, sink))
		sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
		src.Start(sim.Time(i) * 100 * sim.Millisecond)
		sinks[i] = sink
	}
	s.RunUntil(60 * sim.Second)
	g0 := float64(sinks[0].GoodputBytes())
	g1 := float64(sinks[1].GoodputBytes())
	ratio := g0 / g1
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("unfair split: %.2f vs %.2f Mb/s (ratio %.2f)", g0*8/60e6, g1*8/60e6, ratio)
	}
	total := (g0 + g1) * 8 / 60
	if total < 8e6 {
		t.Fatalf("poor utilization: %.2f Mb/s", total/1e6)
	}
}

func TestHookReceivesCallbacks(t *testing.T) {
	// A recording hook must see CA acks and at least one loss on a lossy
	// bottleneck.
	rec := &recordingHook{}
	d := newDumbbell(1, 5_000_000, 20*sim.Millisecond, netem.QueueRED, Config{})
	d.src.ConfigureMultipath()
	d.src.SetHook(rec)
	d.src.Start(0)
	d.s.RunUntil(30 * sim.Second)
	if rec.acks == 0 {
		t.Fatal("hook saw no ACKs")
	}
	if rec.losses == 0 {
		t.Fatal("hook saw no losses")
	}
	if rec.caAcks == 0 {
		t.Fatal("hook saw no congestion-avoidance ACKs")
	}
}

type recordingHook struct {
	acks, caAcks, losses int
}

func (h *recordingHook) OnAck(n int, inCA bool) float64 {
	h.acks++
	if inCA {
		h.caAcks++
		// Aggressive growth (capped by the sender at Reno speed) so the
		// window quickly reaches the loss point.
		return 1
	}
	return 0
}
func (h *recordingHook) OnLoss() { h.losses++ }

func TestHookIncreaseIsCapped(t *testing.T) {
	// A hook demanding a huge increase must be capped at Reno rate
	// (1 packet per acked packet).
	greedy := greedyHook{}
	d := newDumbbell(1, 10_000_000, 10*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.ConfigureMultipath()
	d.src.SetHook(greedy)
	d.src.Start(0)
	prev := d.src.CwndPkts()
	// After k acked packets cwnd can have grown by at most k packets.
	acked0 := d.src.AckedBytes()
	d.s.RunUntil(500 * sim.Millisecond)
	ackedPkts := float64(d.src.AckedBytes()-acked0) / 1500
	growth := d.src.CwndPkts() - prev
	if growth > ackedPkts+1 {
		t.Fatalf("growth %.1f pkts exceeds acked %.1f pkts", growth, ackedPkts)
	}
}

type greedyHook struct{}

func (greedyHook) OnAck(n int, inCA bool) float64 { return 1e9 }
func (greedyHook) OnLoss()                        {}

func TestMinSsthreshOneEntersCAImmediately(t *testing.T) {
	d := newDumbbell(1, 10_000_000, 10*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.ConfigureMultipath()
	d.src.Start(0)
	d.s.RunUntil(200 * sim.Millisecond)
	if !d.src.InCA() {
		t.Fatal("with ssthresh=1 the flow must be in CA from the start")
	}
	if d.src.minSsthresh != 1 {
		t.Fatalf("halving floor %v packets, want 1", d.src.minSsthresh)
	}
}

func TestCwndNeverBelowOneMSS(t *testing.T) {
	d := newDumbbell(2, 1_000_000, 40*sim.Millisecond, netem.QueueRED, Config{})
	d.src.Start(0)
	for i := 1; i <= 200; i++ {
		d.s.RunUntil(sim.Time(i) * 100 * sim.Millisecond)
		if d.src.CwndPkts() < 1-1e-9 {
			t.Fatalf("cwnd %.3f pkts < 1 at %v", d.src.CwndPkts(), d.s.Now())
		}
	}
}

func TestSrcPanicsOnDataPacket(t *testing.T) {
	s := sim.New(1)
	src := NewSrc(s, 0, "f", Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	src.Recv(netem.DataPacket(0, 1500, 0, nil))
}

func TestSinkPanicsOnAck(t *testing.T) {
	s := sim.New(1)
	sink := NewSink(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sink.Recv(netem.AckPacket(0, 0, nil))
}

func TestStartWithoutRoutePanics(t *testing.T) {
	s := sim.New(1)
	src := NewSrc(s, 0, "f", Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	src.Start(0)
}

// ackCollector feeds arriving ACKs nowhere; used for sink-only tests.
type ackCollector struct{ acks []int64 }

func (a *ackCollector) Recv(p *netem.Packet) { a.acks = append(a.acks, p.Seq) }

func TestSinkInOrderDelivery(t *testing.T) {
	s := sim.New(1)
	sink := NewSink(s)
	col := &ackCollector{}
	sink.SetRoute(netem.NewRoute(col))
	for i := 0; i < 5; i++ {
		sink.Recv(netem.DataPacket(int64(i)*1500, 1500, 0, netem.NewRoute(sink)))
	}
	if sink.CumAck() != 7500 {
		t.Fatalf("cumack %d", sink.CumAck())
	}
	want := []int64{1500, 3000, 4500, 6000, 7500}
	for i, a := range col.acks {
		if a != want[i] {
			t.Fatalf("acks %v", col.acks)
		}
	}
}

func TestSinkOutOfOrderGeneratesDupAcksThenJumps(t *testing.T) {
	s := sim.New(1)
	sink := NewSink(s)
	col := &ackCollector{}
	sink.SetRoute(netem.NewRoute(col))
	feed := func(seq int64) {
		sink.Recv(netem.DataPacket(seq, 1500, 0, netem.NewRoute(sink)))
	}
	feed(0)    // ack 1500
	feed(3000) // hole at 1500: dup ack 1500
	feed(4500) // dup ack 1500
	feed(1500) // fills hole: ack 6000
	want := []int64{1500, 1500, 1500, 6000}
	if len(col.acks) != len(want) {
		t.Fatalf("acks %v", col.acks)
	}
	for i := range want {
		if col.acks[i] != want[i] {
			t.Fatalf("acks %v, want %v", col.acks, want)
		}
	}
	if sink.GoodputBytes() != 6000 {
		t.Fatalf("goodput %d", sink.GoodputBytes())
	}
}

func TestSinkDuplicateSegmentsIdempotent(t *testing.T) {
	s := sim.New(1)
	sink := NewSink(s)
	col := &ackCollector{}
	sink.SetRoute(netem.NewRoute(col))
	feed := func(seq int64) {
		sink.Recv(netem.DataPacket(seq, 1500, 0, netem.NewRoute(sink)))
	}
	feed(0)
	feed(0) // duplicate in-order
	feed(3000)
	feed(3000) // duplicate out-of-order
	feed(1500)
	if sink.CumAck() != 4500 {
		t.Fatalf("cumack %d, want 4500", sink.CumAck())
	}
	if sink.GoodputBytes() != 4500 {
		t.Fatalf("goodput %d (duplicates double-counted?)", sink.GoodputBytes())
	}
}

// Property: feeding the segments of a flow in any order yields cumAck =
// total length and goodput counted exactly once.
func TestPropertySinkReassembly(t *testing.T) {
	f := func(permSeed int64, nSeg uint8) bool {
		n := int(nSeg%40) + 1
		s := sim.New(1)
		sink := NewSink(s)
		sink.SetRoute(netem.NewRoute(&ackCollector{}))
		order := rand.New(rand.NewSource(permSeed)).Perm(n)
		for _, i := range order {
			sink.Recv(netem.DataPacket(int64(i)*1500, 1500, 0, netem.NewRoute(sink)))
		}
		return sink.CumAck() == int64(n)*1500 && sink.GoodputBytes() == int64(n)*1500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: with random segment duplication and reordering, goodput never
// exceeds the distinct byte count.
func TestPropertySinkNoDoubleCount(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		if len(ops) == 0 {
			return true
		}
		s := sim.New(1)
		sink := NewSink(s)
		sink.SetRoute(netem.NewRoute(&ackCollector{}))
		seen := map[int64]bool{}
		for _, op := range ops {
			seq := int64(op%30) * 1500
			seen[seq] = true
			sink.Recv(netem.DataPacket(seq, 1500, 0, netem.NewRoute(sink)))
		}
		var distinct int64
		for range seen {
			distinct += 1500
		}
		return sink.GoodputBytes() <= distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	s := sim.New(1)
	src := NewSrc(s, 0, "f", Config{})
	src.rttSample(float64(100 * sim.Millisecond))
	base := src.rto()
	src.rtoBackoff = 1
	if got := src.rto(); got != 2*base {
		t.Fatalf("backoff 1: %v, want %v", got, 2*base)
	}
	src.rtoBackoff = 30 // must clamp at maxRTO
	if got := src.rto(); got != 60*sim.Second {
		t.Fatalf("backoff clamp: %v", got)
	}
}

func TestRTOFloor(t *testing.T) {
	s := sim.New(1)
	src := NewSrc(s, 0, "f", Config{})
	if got := src.rto(); got != sim.Second {
		t.Fatalf("rto before any sample %v, want 1s", got)
	}
	src.rttSample(float64(sim.Millisecond)) // tiny RTT
	if got := src.rto(); got != 200*sim.Millisecond {
		t.Fatalf("rto %v, want 200ms floor", got)
	}
}

func TestRTTSampleEstimator(t *testing.T) {
	s := sim.New(1)
	src := NewSrc(s, 0, "f", Config{})
	src.rttSample(float64(100 * sim.Millisecond))
	if src.SRTT() != 0.1 {
		t.Fatalf("first sample srtt %v", src.SRTT())
	}
	// Constant samples converge and rttvar shrinks.
	for i := 0; i < 100; i++ {
		src.rttSample(float64(100 * sim.Millisecond))
	}
	if math.Abs(src.SRTT()-0.1) > 1e-9 {
		t.Fatalf("srtt drifted: %v", src.SRTT())
	}
	if src.rttvar > float64(5*sim.Millisecond) {
		t.Fatalf("rttvar %v did not shrink", sim.Time(src.rttvar))
	}
	// Negative/zero samples are ignored.
	src.rttSample(0)
	src.rttSample(-5)
	if math.Abs(src.SRTT()-0.1) > 1e-9 {
		t.Fatal("bad samples disturbed the estimator")
	}
}

func BenchmarkSingleFlowSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := newDumbbell(1, 10_000_000, 40*sim.Millisecond, netem.QueueRED, Config{})
		d.src.Start(0)
		d.s.RunUntil(sim.Second)
	}
}
