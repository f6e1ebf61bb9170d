package mptcp

import (
	"reflect"
	"slices"
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// schedRig wires a Conn over independent paths (rate, one-way delay per
// path) carrying a Stream under the named scheduler.
func schedRig(t *testing.T, seed int64, rates []int64, delays []sim.Time, total, chunk int64, name string) (*sim.Sim, *Stream) {
	t.Helper()
	s := sim.New(seed)
	conn := New(s, "sched", core.NewOLIA(), tcp.Config{})
	for i, rate := range rates {
		fwd := netem.NewLink(s, netem.LinkConfig{RateBps: rate, Delay: delays[i], Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
		rev := netem.NewLink(s, netem.LinkConfig{RateBps: rate, Delay: delays[i], Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
		sf := conn.AddSubflow(0)
		sf.SetRoutes(
			netem.NewRoute(fwd.Q, fwd.P, sf.Sink),
			netem.NewRoute(rev.Q, rev.P, sf.Src),
		)
	}
	sched, err := NewScheduler(name)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewStreamSched(conn, total, chunk, sched)
}

// TestStreamFlapStallRegression is the headline bug: a stream whose subflow
// is flapped down mid-transfer used to strand that subflow's assigned spans
// forever — OnStalled cannot fire on a frozen sender — so the stream never
// completed even though the other path stayed healthy. Reinjection must
// move the stranded spans and finish the transfer. The path never comes
// back up, so completion proves reassignment (fails on the pre-scheduler
// Stream).
func TestStreamFlapStallRegression(t *testing.T) {
	s, st := schedRig(t, 1, []int64{10_000_000, 10_000_000},
		[]sim.Time{10 * sim.Millisecond, 10 * sim.Millisecond}, 4_000_000, 0, "pull")
	s.At(2*sim.Second, func() { st.conn.SetPathUp(0, false) })
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatalf("stream stalled after flap: in-order %d / %d",
			st.InOrderBytes(), st.TotalBytes())
	}
	if st.InOrderBytes() != st.TotalBytes() {
		t.Fatalf("in-order %d != total %d", st.InOrderBytes(), st.TotalBytes())
	}
}

// TestStreamFlapCompletesUnderEverySchedulerDownUp: a down/up flap
// mid-transfer must not stall any policy; assignedTo may exceed the stream
// length because reinjected spans count on both subflows.
func TestStreamFlapCompletesUnderEveryScheduler(t *testing.T) {
	for _, name := range Schedulers() {
		t.Run(name, func(t *testing.T) {
			s, st := schedRig(t, 2, []int64{10_000_000, 4_000_000},
				[]sim.Time{10 * sim.Millisecond, 40 * sim.Millisecond}, 2_000_000, 0, name)
			s.At(1*sim.Second, func() { st.conn.SetPathUp(0, false) })
			s.At(4*sim.Second, func() { st.conn.SetPathUp(0, true) })
			st.Start(0)
			s.RunUntil(120 * sim.Second)
			if !st.Done() {
				t.Fatalf("%s stalled: in-order %d / %d", name,
					st.InOrderBytes(), st.TotalBytes())
			}
			if sum := assignedTo(st, 0) + assignedTo(st, 1); sum < st.TotalBytes() {
				t.Fatalf("assignment accounting lost data: %d < %d", sum, st.TotalBytes())
			}
			if st.DeliveredBytes() != st.TotalBytes() {
				t.Fatalf("delivered %d != total %d (duplicates must count once)",
					st.DeliveredBytes(), st.TotalBytes())
			}
		})
	}
}

// TestStreamAllPathsDownParksSpans: with every subflow down, stranded spans
// park; when a path returns they flush and the stream completes.
func TestStreamAllPathsDownParksSpans(t *testing.T) {
	s, st := schedRig(t, 3, []int64{10_000_000, 10_000_000},
		[]sim.Time{10 * sim.Millisecond, 10 * sim.Millisecond}, 2_000_000, 0, "pull")
	s.At(1*sim.Second, func() {
		st.conn.SetPathUp(0, false)
		st.conn.SetPathUp(1, false)
	})
	s.At(3*sim.Second, func() { st.conn.SetPathUp(1, true) })
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatalf("stream stalled: in-order %d / %d", st.InOrderBytes(), st.TotalBytes())
	}
}

func TestCompletionTimePanicsBeforeDone(t *testing.T) {
	_, st := schedRig(t, 4, []int64{10_000_000, 10_000_000},
		[]sim.Time{sim.Millisecond, sim.Millisecond}, 1_000_000, 0, "pull")
	defer func() {
		if recover() == nil {
			t.Fatal("CompletionTime before Done must panic")
		}
	}()
	st.CompletionTime()
}

func TestSchedulerRegistry(t *testing.T) {
	want := []string{"ecf", "minrtt", "pull", "redundant", "roundrobin"}
	if got := Schedulers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schedulers() = %v, want %v", got, want)
	}
	if _, err := NewScheduler("nope"); err == nil {
		t.Fatal("unknown scheduler must error")
	}
	for _, name := range Schedulers() {
		sc, err := NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name() != name {
			t.Fatalf("scheduler %q reports name %q", name, sc.Name())
		}
	}
}

// fakeView is a hand-set SchedView for unit-testing Pick decisions.
type fakeView struct {
	cwnd     []float64 // packets
	srtt     []float64 // seconds
	inflight []int64
	up       []bool
}

func (f *fakeView) NumFlows() int             { return len(f.cwnd) }
func (f *fakeView) CwndPkts(i int) float64    { return f.cwnd[i] }
func (f *fakeView) SRTT(i int) float64        { return f.srtt[i] }
func (f *fakeView) MSS() int                  { return 1500 }
func (f *fakeView) InFlightBytes(i int) int64 { return f.inflight[i] }
func (f *fakeView) PathUp(i int) bool         { return f.up[i] }

func TestMinRTTPick(t *testing.T) {
	v := &fakeView{
		cwnd:     []float64{10, 10},
		srtt:     []float64{0.080, 0.020},
		inflight: []int64{0, 0},
		up:       []bool{true, true},
	}
	sc, _ := NewScheduler("minrtt")
	// The fast subflow wins regardless of who asks.
	if got := sc.Pick(v, 0, 1<<20); got != 1 {
		t.Fatalf("minrtt picked %d, want fast subflow 1", got)
	}
	// Fast subflow window-full: the slow one gets the chunk.
	v.inflight[1] = 15_000
	if got := sc.Pick(v, 0, 1<<20); got != 0 {
		t.Fatalf("minrtt with fast path full picked %d, want 0", got)
	}
	// Fast subflow down: same.
	v.inflight[1] = 0
	v.up[1] = false
	if got := sc.Pick(v, 0, 1<<20); got != 0 {
		t.Fatalf("minrtt with fast path down picked %d, want 0", got)
	}
	// Everything down or full: hold.
	v.up[0] = false
	if got := sc.Pick(v, 0, 1<<20); got >= 0 {
		t.Fatalf("minrtt with no eligible subflow picked %d, want hold", got)
	}
	// Unmeasured SRTT must not make a path infinitely attractive.
	v2 := &fakeView{
		cwnd:     []float64{10, 10},
		srtt:     []float64{0, 0.020},
		inflight: []int64{0, 0},
		up:       []bool{true, true},
	}
	if got := sc.Pick(v2, 0, 1<<20); got != 1 {
		t.Fatalf("minrtt preferred SRTT-0 path: got %d", got)
	}
}

func TestRoundRobinPick(t *testing.T) {
	v := &fakeView{
		cwnd:     []float64{10, 10, 10},
		srtt:     []float64{0.01, 0.09, 0.05},
		inflight: []int64{0, 0, 0},
		up:       []bool{true, true, true},
	}
	sc, _ := NewScheduler("roundrobin")
	// The rotation owes subflow 0 first: an out-of-turn asker is held.
	if got := sc.Pick(v, 2, 1<<20); got >= 0 {
		t.Fatalf("rr granted out of turn: %d", got)
	}
	for want := 0; want < 3; want++ {
		if got := sc.Pick(v, want, 1<<20); got != want {
			t.Fatalf("rr turn %d granted %d", want, got)
		}
	}
	// Cursor wrapped; a full or down subflow is skipped in rotation.
	v.inflight[0] = 15_000
	if got := sc.Pick(v, 1, 1<<20); got != 1 {
		t.Fatalf("rr did not skip full subflow: %d", got)
	}
}

func TestECFPick(t *testing.T) {
	sc, _ := NewScheduler("ecf")
	// Fast subflow has headroom: the chunk is reserved for it.
	v := &fakeView{
		cwnd:     []float64{10, 10},
		srtt:     []float64{0.010, 0.100},
		inflight: []int64{0, 0},
		up:       []bool{true, true},
	}
	if got := sc.Pick(v, 1, 1<<20); got >= 0 {
		t.Fatalf("ecf gave slow subflow a chunk while fast has room: %d", got)
	}
	if got := sc.Pick(v, 0, 1<<20); got != 0 {
		t.Fatalf("ecf denied the fast subflow: %d", got)
	}
	// Fast subflow window-limited, little data left: waiting for the fast
	// path (one round ≈ 2·10ms) still beats the slow path's 100ms RTT.
	v.inflight[0] = 15_000
	if got := sc.Pick(v, 1, 1500); got >= 0 {
		t.Fatalf("ecf sent tail bytes on slow path: %d", got)
	}
	// Mountains of data left: the slow path helps after all.
	if got := sc.Pick(v, 1, 64<<20); got != 1 {
		t.Fatalf("ecf idled the slow path on a bulk transfer: %d", got)
	}
	// Reinjection with the fast path available targets the fast path.
	v.inflight[0] = 0
	if got := sc.Pick(v, ReinjectPick, 1<<20); got != 0 {
		t.Fatalf("ecf reinjection target %d, want 0", got)
	}
}

// TestMinRTTStreamPrefersFastPath: end-to-end, minrtt loads the low-RTT
// subflow and only spills to the slow one when the fast window is full.
func TestMinRTTStreamPrefersFastPath(t *testing.T) {
	s, st := schedRig(t, 6, []int64{10_000_000, 10_000_000},
		[]sim.Time{5 * sim.Millisecond, 80 * sim.Millisecond}, 4_000_000, 0, "minrtt")
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatal("not done")
	}
	if assignedTo(st, 0) <= assignedTo(st, 1) {
		t.Fatalf("minrtt loaded slow path: fast %d vs slow %d",
			assignedTo(st, 0), assignedTo(st, 1))
	}
}

// TestRoundRobinStreamBalances: equal paths, rr splits assignments evenly.
func TestRoundRobinStreamBalances(t *testing.T) {
	s, st := schedRig(t, 7, []int64{10_000_000, 10_000_000},
		[]sim.Time{10 * sim.Millisecond, 10 * sim.Millisecond}, 4_000_000, 0, "roundrobin")
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatal("not done")
	}
	// Strict alternation is broken only when one window fills (rr skips a
	// full subflow), so the split stays near even without being exact.
	a0, a1 := assignedTo(st, 0), assignedTo(st, 1)
	if ratio := float64(a0) / float64(a1); ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("rr imbalance: %d vs %d (ratio %.2f)", a0, a1, ratio)
	}
}

// TestECFStreamCompletes on asymmetric paths without starving completion.
func TestECFStreamCompletes(t *testing.T) {
	s, st := schedRig(t, 8, []int64{10_000_000, 2_000_000},
		[]sim.Time{5 * sim.Millisecond, 60 * sim.Millisecond}, 4_000_000, 0, "ecf")
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatalf("ecf stalled: in-order %d / %d", st.InOrderBytes(), st.TotalBytes())
	}
	if assignedTo(st, 0) <= assignedTo(st, 1) {
		t.Fatalf("ecf loaded slow path: %d vs %d", assignedTo(st, 0), assignedTo(st, 1))
	}
}

// TestRedundantStream: every chunk rides all subflows; distinct-byte
// accounting must not double-count, and each subflow is assigned (close to)
// the whole stream.
func TestRedundantStream(t *testing.T) {
	s, st := schedRig(t, 9, []int64{10_000_000, 10_000_000},
		[]sim.Time{10 * sim.Millisecond, 30 * sim.Millisecond}, 1_000_000, 0, "redundant")
	st.Start(0)
	s.RunUntil(60 * sim.Second)
	if !st.Done() {
		t.Fatal("redundant stream incomplete")
	}
	if st.DeliveredBytes() != st.TotalBytes() {
		t.Fatalf("delivered %d != total %d: duplicates double-counted",
			st.DeliveredBytes(), st.TotalBytes())
	}
	// The fast subflow must have walked the entire stream.
	if assignedTo(st, 0) != st.TotalBytes() {
		t.Fatalf("fast subflow assigned %d, want full stream %d",
			assignedTo(st, 0), st.TotalBytes())
	}
}

// TestSchedulerDeterminism: same (rig, seed) twice must reproduce identical
// assignment and completion for every policy.
func TestSchedulerDeterminism(t *testing.T) {
	for _, name := range Schedulers() {
		run := func() (int64, int64, sim.Time) {
			s, st := schedRig(t, 11, []int64{10_000_000, 3_000_000},
				[]sim.Time{5 * sim.Millisecond, 50 * sim.Millisecond}, 2_000_000, 0, name)
			s.At(1*sim.Second, func() { st.conn.SetPathUp(1, false) })
			s.At(2*sim.Second, func() { st.conn.SetPathUp(1, true) })
			st.Start(0)
			s.RunUntil(120 * sim.Second)
			if !st.Done() {
				t.Fatalf("%s incomplete", name)
			}
			return assignedTo(st, 0), assignedTo(st, 1), st.CompletionTime()
		}
		a0, a1, ct := run()
		b0, b1, ct2 := run()
		if a0 != b0 || a1 != b1 || ct != ct2 {
			t.Fatalf("%s not deterministic: (%d,%d,%v) vs (%d,%d,%v)",
				name, a0, a1, ct, b0, b1, ct2)
		}
	}
}

// bareStream builds a Stream for direct reassembly unit tests (no traffic).
func bareStream(t *testing.T, total int64) *Stream {
	t.Helper()
	s := sim.New(1)
	conn := New(s, "bare", core.NewOLIA(), tcp.Config{})
	fwd := netem.NewLink(s, netem.LinkConfig{RateBps: 1_000_000, Delay: 0, Kind: netem.QueueDropTail}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 1_000_000, Delay: 0, Kind: netem.QueueDropTail}, "r")
	sf := conn.AddSubflow(0)
	sf.SetRoutes(netem.NewRoute(fwd.Q, fwd.P, sf.Sink), netem.NewRoute(rev.Q, rev.P, sf.Src))
	return NewStreamSched(conn, total, 0, pullSched{})
}

// rangesOf returns a copy of r's ranges, lowest first.
func rangesOf(r *netem.Ranges) []netem.Block {
	return r.Head(make([]netem.Block, r.Len()))
}

func TestReassemblyOutOfOrderDrain(t *testing.T) {
	st := bareStream(t, 100)
	// Arrivals ahead of the in-order point buffer, then one prefix span
	// drains everything across span boundaries.
	st.emit(dataSpan{40, 60})
	st.emit(dataSpan{20, 40})
	st.emit(dataSpan{80, 100})
	if st.InOrderBytes() != 0 || st.DeliveredBytes() != 60 {
		t.Fatalf("pre-drain state: inOrder %d delivered %d", st.InOrderBytes(), st.DeliveredBytes())
	}
	st.emit(dataSpan{0, 20})
	if st.InOrderBytes() != 60 || st.DeliveredBytes() != 80 {
		t.Fatalf("post-drain: inOrder %d delivered %d, want 60/80", st.InOrderBytes(), st.DeliveredBytes())
	}
	st.emit(dataSpan{60, 80})
	if !st.Done() || st.InOrderBytes() != 100 || st.DeliveredBytes() != 100 {
		t.Fatalf("final: done=%v inOrder %d delivered %d", st.Done(), st.InOrderBytes(), st.DeliveredBytes())
	}
}

func TestReassemblyOverlappingSpans(t *testing.T) {
	st := bareStream(t, 100)
	st.emit(dataSpan{0, 30})
	st.emit(dataSpan{10, 40}) // overlaps the delivered prefix
	if st.InOrderBytes() != 40 || st.DeliveredBytes() != 40 {
		t.Fatalf("prefix overlap: inOrder %d delivered %d", st.InOrderBytes(), st.DeliveredBytes())
	}
	st.emit(dataSpan{0, 40}) // exact duplicate of everything so far
	if st.DeliveredBytes() != 40 {
		t.Fatalf("duplicate counted: delivered %d", st.DeliveredBytes())
	}
	st.emit(dataSpan{60, 80})
	st.emit(dataSpan{50, 70}) // overlaps buffered span on the left
	st.emit(dataSpan{70, 90}) // and on the right
	if st.DeliveredBytes() != 80 {
		t.Fatalf("ooo overlap accounting: delivered %d, want 80", st.DeliveredBytes())
	}
	if got := rangesOf(&st.oooSpans); !slices.Equal(got, []netem.Block{{Start: 50, End: 90}}) {
		t.Fatalf("ooo spans not merged: %v", got)
	}
	st.emit(dataSpan{40, 55}) // bridges the gap and drains the merged span
	if st.InOrderBytes() != 90 || st.DeliveredBytes() != 90 {
		t.Fatalf("bridge: inOrder %d delivered %d, want 90/90", st.InOrderBytes(), st.DeliveredBytes())
	}
	st.emit(dataSpan{85, 100}) // tail, overlapping the prefix
	if !st.Done() || st.DeliveredBytes() != 100 {
		t.Fatalf("tail: done=%v delivered %d", st.Done(), st.DeliveredBytes())
	}
}

func TestInsertOOOKeepsSpansSortedDisjoint(t *testing.T) {
	st := bareStream(t, 1000)
	for _, sp := range []dataSpan{{500, 520}, {100, 120}, {300, 320}, {110, 130}, {90, 100}, {320, 340}} {
		st.emit(dataSpan{sp.start, sp.end})
	}
	want := []netem.Block{{Start: 90, End: 130}, {Start: 300, End: 340}, {Start: 500, End: 520}}
	if got := rangesOf(&st.oooSpans); !slices.Equal(got, want) {
		t.Fatalf("oooSpans = %v, want %v", got, want)
	}
	if st.DeliveredBytes() != 100 {
		t.Fatalf("delivered %d, want 100", st.DeliveredBytes())
	}
}

// TestCappedWindowBoundsAssignment: a scheduler sees the window a capped
// sender may fill, not its uncapped congestion window, so it never finds
// headroom the cap takes away. Over a 16 GiB stream whose senders are
// capped at 8 packets, the data assigned beyond what has arrived stays
// within each subflow's cap plus a chunk; reading the uncapped window, one
// pump granted chunk after chunk until the whole stream was assigned.
func TestCappedWindowBoundsAssignment(t *testing.T) {
	const capPkts, total = 8, 16 << 30
	for _, name := range Schedulers() {
		if name == "redundant" {
			continue // every subflow walks the whole stream on its own
		}
		t.Run(name, func(t *testing.T) {
			s := sim.New(1)
			conn := New(s, "capped", core.NewOLIA(), tcp.Config{MaxCwndPkts: capPkts})
			for i, rate := range []int64{10_000_000, 5_000_000} {
				delay := []sim.Time{10 * sim.Millisecond, 40 * sim.Millisecond}[i]
				fwd := netem.NewLink(s, netem.LinkConfig{RateBps: rate, Delay: delay, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
				rev := netem.NewLink(s, netem.LinkConfig{RateBps: rate, Delay: delay, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
				sf := conn.AddSubflow(0)
				sf.SetRoutes(netem.NewRoute(fwd.Q, fwd.P, sf.Sink), netem.NewRoute(rev.Q, rev.P, sf.Src))
			}
			sched, err := NewScheduler(name)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStreamSched(conn, total, 0, sched)
			st.Start(0)
			bound := int64(conn.NumFlows()) * (capPkts*netem.MSS + DefaultChunk)
			for at := 100 * sim.Millisecond; at <= 2*sim.Second; at += 100 * sim.Millisecond {
				s.RunUntil(at)
				if ahead := st.nextData - st.DeliveredBytes(); ahead > bound {
					t.Fatalf("t=%v: %d bytes assigned past the %d delivered, above the capped bound %d", at, ahead, st.DeliveredBytes(), bound)
				}
			}
			if st.DeliveredBytes() == 0 {
				t.Fatal("nothing delivered: the bound held vacuously")
			}
		})
	}
}
