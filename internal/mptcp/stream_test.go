package mptcp

import (
	"testing"

	"mptcpsim/internal/alloctest"
	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// streamRig wires a Conn with two independent paths and a Stream on top.
func streamRig(seed int64, rate1, rate2 int64, total, chunk int64) (*sim.Sim, *Stream) {
	s := sim.New(seed)
	conn := New(s, "stream", core.NewOLIA(), tcp.Config{})
	for _, rate := range []int64{rate1, rate2} {
		fwd := netem.NewLink(s, netem.LinkConfig{RateBps: rate, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
		rev := netem.NewLink(s, netem.LinkConfig{RateBps: rate, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
		sf := conn.AddSubflow(0)
		sf.SetRoutes(
			netem.NewRoute(fwd.Q, fwd.P, sf.Sink),
			netem.NewRoute(rev.Q, rev.P, sf.Src),
		)
	}
	return s, NewStreamSched(conn, total, chunk, pullSched{})
}

func TestStreamCompletesExactly(t *testing.T) {
	s, st := streamRig(1, 10_000_000, 10_000_000, 1_000_000, 0)
	var completed *Stream
	st.OnComplete = func(x *Stream) { completed = x }
	st.Start(0)
	s.RunUntil(30 * sim.Second)
	if !st.Done() || completed != st {
		t.Fatal("stream did not complete")
	}
	if st.InOrderBytes() != 1_000_000 || st.DeliveredBytes() != 1_000_000 {
		t.Fatalf("delivered %d in-order %d, want exactly 1000000",
			st.DeliveredBytes(), st.InOrderBytes())
	}
	if ct := st.CompletionTime(); ct <= 0 || ct > 10*sim.Second {
		t.Fatalf("completion time %v implausible", ct)
	}
	if st.TotalBytes() != 1_000_000 {
		t.Fatal("total accessor")
	}
}

func TestStreamUsesBothPaths(t *testing.T) {
	s, st := streamRig(2, 10_000_000, 10_000_000, 4_000_000, 0)
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatal("not done")
	}
	a0, a1 := st.AssignedTo(0), st.AssignedTo(1)
	if a0+a1 != 4_000_000 {
		t.Fatalf("assignment accounting: %d + %d != total", a0, a1)
	}
	if a0 < 500_000 || a1 < 500_000 {
		t.Fatalf("one path starved: %d vs %d", a0, a1)
	}
}

func TestStreamFasterThanSinglePath(t *testing.T) {
	// The same bytes over one path (second path 1000x slower contributes
	// negligibly... instead compare two-path vs one-subflow conn).
	elapsed := func(nPaths int) sim.Time {
		s := sim.New(3)
		conn := New(s, "x", core.NewOLIA(), tcp.Config{})
		for i := 0; i < nPaths; i++ {
			fwd := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
			rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
			sf := conn.AddSubflow(0)
			sf.SetRoutes(
				netem.NewRoute(fwd.Q, fwd.P, sf.Sink),
				netem.NewRoute(rev.Q, rev.P, sf.Src),
			)
		}
		st := NewStreamSched(conn, 8_000_000, 0, pullSched{})
		st.Start(0)
		s.RunUntil(120 * sim.Second)
		if !st.Done() {
			t.Fatal("stream incomplete")
		}
		return st.CompletionTime()
	}
	one := elapsed(1)
	two := elapsed(2)
	if two >= one {
		t.Fatalf("two paths (%v) not faster than one (%v)", two, one)
	}
}

func TestStreamAsymmetricPullsMoreFromFastPath(t *testing.T) {
	s, st := streamRig(4, 40_000_000, 10_000_000, 8_000_000, 0)
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatal("not done")
	}
	if st.AssignedTo(0) <= st.AssignedTo(1) {
		t.Fatalf("fast path pulled %d <= slow path %d",
			st.AssignedTo(0), st.AssignedTo(1))
	}
}

func TestStreamSmallChunks(t *testing.T) {
	s, st := streamRig(5, 10_000_000, 10_000_000, 300_000, 3000)
	st.Start(0)
	s.RunUntil(30 * sim.Second)
	if !st.Done() {
		t.Fatalf("not done: in-order %d / %d", st.InOrderBytes(), st.TotalBytes())
	}
}

func TestStreamTinyTotal(t *testing.T) {
	// Smaller than one chunk: must still complete with both subflows seeded.
	s, st := streamRig(6, 10_000_000, 10_000_000, 10_000, 0)
	st.Start(0)
	s.RunUntil(10 * sim.Second)
	if !st.Done() {
		t.Fatal("tiny stream incomplete")
	}
}

func TestStreamValidation(t *testing.T) {
	s := sim.New(1)
	conn := New(s, "x", core.NewOLIA(), tcp.Config{})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no subflows", func() { NewStreamSched(conn, 1000, 0, pullSched{}) })
	fwd := netem.NewLink(s, netem.LinkConfig{RateBps: 1_000_000, Delay: 0, Kind: netem.QueueDropTail}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 1_000_000, Delay: 0, Kind: netem.QueueDropTail}, "r")
	sf := conn.AddSubflow(0)
	sf.SetRoutes(netem.NewRoute(fwd.Q, fwd.P, sf.Sink), netem.NewRoute(rev.Q, rev.P, sf.Src))
	mustPanic("zero total", func() { NewStreamSched(conn, 0, 0, pullSched{}) })
	mustPanic("negative chunk", func() { NewStreamSched(conn, 1000, -1, pullSched{}) })
	// Valid stream, then a second stream on the same conn must reject.
	NewStreamSched(conn, 1000, 0, pullSched{})
	mustPanic("double stream", func() { NewStreamSched(conn, 1000, 0, pullSched{}) })
}

func TestStreamGoodputConsistency(t *testing.T) {
	// Stream delivery accounting must agree with the subflow sinks.
	s, st := streamRig(7, 10_000_000, 10_000_000, 2_000_000, 0)
	st.Start(0)
	s.RunUntil(30 * sim.Second)
	if !st.Done() {
		t.Fatal("not done")
	}
	var sinkTotal int64
	for _, sf := range st.conn.Subflows() {
		sinkTotal += sf.Sink.GoodputBytes()
	}
	if sinkTotal != st.DeliveredBytes() {
		t.Fatalf("sink goodput %d != stream delivered %d", sinkTotal, st.DeliveredBytes())
	}
}

// TestStreamZeroAlloc locks a scheduled stream's delivery path at zero
// allocations once warm. Two paths of unequal rate and delay under minrtt
// keep the stream reassembling out-of-order data and both subflows' span
// FIFOs cycling; a second ten-second stretch of it, losses and recoveries
// included, must not allocate at all.
func TestStreamZeroAlloc(t *testing.T) {
	s := sim.New(8)
	conn := New(s, "stream", core.NewOLIA(), tcp.Config{})
	for _, path := range []struct {
		rate  int64
		delay sim.Time
	}{{6_000_000, 10 * sim.Millisecond}, {10_000_000, 15 * sim.Millisecond}} {
		cfg := netem.LinkConfig{RateBps: path.rate, Delay: path.delay, Kind: netem.QueueDropTail, DropTailPkts: 50}
		fwd, rev := netem.NewLink(s, cfg, "f"), netem.NewLink(s, cfg, "r")
		sf := conn.AddSubflow(0)
		sf.SetRoutes(
			netem.NewRoute(fwd.Q, fwd.P, sf.Sink),
			netem.NewRoute(rev.Q, rev.P, sf.Src),
		)
	}
	sched, err := NewScheduler("minrtt")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamSched(conn, 1<<40, 0, sched)
	st.Start(0)
	var consumed0 [2]int64
	stretch := func() {
		copy(consumed0[:], st.consumed)
		s.RunUntil(s.Now() + 10*sim.Second)
	}
	stretch() // pools, span FIFOs and the reassembly buffer reach their high-water marks

	// One run after a warm-up call: the stretch's exact allocation count,
	// with the stacks that allocated when it is not zero.
	allocs, stacks := alloctest.Count(stretch)
	if allocs != 0 {
		t.Fatalf("%d allocations over a stretch delivering %d and %d bytes, want 0; allocated at:\n%s", allocs,
			st.consumed[0]-consumed0[0], st.consumed[1]-consumed0[1], stacks)
	}
	for i := range consumed0 {
		if st.consumed[i]-consumed0[i] < 1_000_000 {
			t.Fatalf("measured stretch delivered %d bytes on subflow %d, want both subflows busy", st.consumed[i]-consumed0[i], i)
		}
	}
	if st.Done() {
		t.Fatal("the stream completed inside the measurement")
	}
}
