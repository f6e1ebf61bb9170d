package mptcp

import (
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// twoLinkRig reproduces the paper's Fig. 6: a multipath user whose two
// subflows each cross one of two bottleneck links of capacity C, each link
// shared with a configurable number of regular TCP flows.
type twoLinkRig struct {
	s       *sim.Sim
	conn    *Conn
	bgSinks [2][]*tcp.Sink
	queues  [2]netem.Queue
}

func newTwoLinkRig(seed int64, rateBps int64, nBG1, nBG2 int, ctrl core.Controller) *twoLinkRig {
	s := sim.New(seed)
	rig := &twoLinkRig{s: s}
	owd := 40 * sim.Millisecond
	conn := New(s, "mp", ctrl, tcp.Config{})
	rig.conn = conn
	for li, nBG := range []int{nBG1, nBG2} {
		fwd := netem.NewLink(s, netem.LinkConfig{RateBps: rateBps, Delay: owd, Kind: netem.QueueRED}, "fwd")
		rev := netem.NewLink(s, netem.LinkConfig{RateBps: rateBps, Delay: owd, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "rev")
		rig.queues[li] = fwd.Q
		// Background regular-TCP flows.
		for i := 0; i < nBG; i++ {
			src := tcp.NewSrc(s, 0, "bg", tcp.Config{})
			sink := tcp.NewSink(s)
			src.SetRoute(netem.NewRoute(fwd.Q, fwd.P, sink))
			sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
			src.Start(sim.Time(i) * 50 * sim.Millisecond)
			rig.bgSinks[li] = append(rig.bgSinks[li], sink)
		}
		// One multipath subflow over this link.
		sf := conn.AddSubflow(0)
		sf.SetRoutes(
			netem.NewRoute(fwd.Q, fwd.P, sf.Sink),
			netem.NewRoute(rev.Q, rev.P, sf.Src),
		)
	}
	return rig
}

func (r *twoLinkRig) run(d sim.Time) { r.s.RunUntil(d) }

func (r *twoLinkRig) subGoodput(i int) float64 {
	return float64(r.conn.Subflows()[i].Sink.GoodputBytes())
}

func (r *twoLinkRig) bgGoodputAvg(li int) float64 {
	var total float64
	for _, k := range r.bgSinks[li] {
		total += float64(k.GoodputBytes())
	}
	return total / float64(len(r.bgSinks[li]))
}

const rate10M = 10_000_000

func TestOLIASymmetricUsesBothPaths(t *testing.T) {
	rig := newTwoLinkRig(1, rate10M, 5, 5, core.NewOLIA())
	rig.conn.Start(300 * sim.Millisecond)
	rig.run(60 * sim.Second)
	g0, g1 := rig.subGoodput(0), rig.subGoodput(1)
	// Fair share per link is C/6 ≈ 1.67 Mb/s → ~12.5 MB over 60 s. Each
	// subflow should carry a substantial share; neither path abandoned.
	if g0 < 3e6 || g1 < 3e6 {
		t.Fatalf("OLIA abandoned a symmetric path: %.2f / %.2f Mb/s",
			g0*8/60e6, g1*8/60e6)
	}
	if ratio := g0 / g1; ratio < 0.33 || ratio > 3 {
		t.Fatalf("flappy split on symmetric paths: ratio %.2f", ratio)
	}
}

func TestOLIAAsymmetricAbandonsCongestedPath(t *testing.T) {
	// Path 2 shared with 10 TCP flows, path 1 with 5: OLIA should move
	// almost everything to path 1 (the paper's Fig. 8).
	rig := newTwoLinkRig(1, rate10M, 5, 10, core.NewOLIA())
	rig.conn.Start(300 * sim.Millisecond)
	rig.run(60 * sim.Second)
	g0, g1 := rig.subGoodput(0), rig.subGoodput(1)
	if g0 < 2*g1 {
		t.Fatalf("OLIA did not prefer the good path: %.2f vs %.2f Mb/s",
			g0*8/60e6, g1*8/60e6)
	}
	// The congested-path window should hover near 1 packet.
	if w := rig.conn.CwndPkts(1); w > 8 {
		t.Fatalf("congested-path window %.1f pkts, want small", w)
	}
}

func TestOLIALessAggressiveThanLIAOnCongestedPath(t *testing.T) {
	// The same asymmetric scenario: LIA transmits significantly more over
	// the congested path than OLIA (Fig. 8 vs Fig. 8(b)).
	gLIA := func() float64 {
		rig := newTwoLinkRig(1, rate10M, 5, 10, core.NewLIA())
		rig.conn.Start(300 * sim.Millisecond)
		rig.run(60 * sim.Second)
		return rig.subGoodput(1)
	}()
	gOLIA := func() float64 {
		rig := newTwoLinkRig(1, rate10M, 5, 10, core.NewOLIA())
		rig.conn.Start(300 * sim.Millisecond)
		rig.run(60 * sim.Second)
		return rig.subGoodput(1)
	}()
	if gOLIA >= gLIA {
		t.Fatalf("OLIA (%.2f Mb/s) not below LIA (%.2f Mb/s) on congested path",
			gOLIA*8/60e6, gLIA*8/60e6)
	}
}

func TestGoalOneImproveThroughput(t *testing.T) {
	// An MPTCP user should do at least as well as a TCP user on its best
	// path: here fair share on either link is C/6; allow measurement slack.
	for _, ctrl := range []core.Controller{core.NewOLIA(), core.NewLIA()} {
		rig := newTwoLinkRig(2, rate10M, 5, 5, ctrl)
		rig.conn.Start(300 * sim.Millisecond)
		rig.run(60 * sim.Second)
		mp := rig.subGoodput(0) + rig.subGoodput(1)
		tcpShare := (rig.bgGoodputAvg(0) + rig.bgGoodputAvg(1)) / 2
		// Equilibrium total equals one best-path TCP share; the multipath
		// ramp-up (subflows start at w=1 in CA, §IV-B) costs ~10% over a
		// 60 s run, hence the 0.8 factor.
		if mp < 0.8*tcpShare {
			t.Errorf("%s: multipath %.2f Mb/s < TCP share %.2f Mb/s",
				ctrl.Name(), mp*8/60e6, tcpShare*8/60e6)
		}
	}
}

func TestUncoupledTakesTwoShares(t *testing.T) {
	rig := newTwoLinkRig(3, rate10M, 5, 5, core.NewUncoupled())
	rig.conn.Start(300 * sim.Millisecond)
	rig.run(60 * sim.Second)
	mp := rig.subGoodput(0) + rig.subGoodput(1)
	tcpShare := (rig.bgGoodputAvg(0) + rig.bgGoodputAvg(1)) / 2
	// ε=2 behaves as two independent TCP flows: roughly double share.
	if mp < 1.5*tcpShare {
		t.Fatalf("uncoupled %.2f Mb/s vs share %.2f Mb/s: expected ~2 shares",
			mp*8/60e6, tcpShare*8/60e6)
	}
}

func TestFullyCoupledDelivers(t *testing.T) {
	rig := newTwoLinkRig(4, rate10M, 5, 5, core.NewFullyCoupled())
	rig.conn.Start(300 * sim.Millisecond)
	rig.run(60 * sim.Second)
	if mp := rig.subGoodput(0) + rig.subGoodput(1); mp < 2e6 {
		t.Fatalf("fully coupled stalled: %.0f bytes", mp)
	}
}

func TestConnViewImplementation(t *testing.T) {
	rig := newTwoLinkRig(5, rate10M, 1, 1, core.NewOLIA())
	var v core.ConnView = rig.conn
	if v.NumFlows() != 2 {
		t.Fatalf("NumFlows %d", v.NumFlows())
	}
	if v.MSS() != 1500 {
		t.Fatalf("MSS %d", v.MSS())
	}
	if v.CwndPkts(0) <= 0 {
		t.Fatalf("CwndPkts %v", v.CwndPkts(0))
	}
	if v.SRTT(0) != 0 {
		t.Fatalf("SRTT before start %v", v.SRTT(0))
	}
}

// firstAck records, per subflow, the congestion-avoidance flag its first
// ACK reaches the controller with: the phase the subflow started in.
type firstAck struct {
	core.Controller
	inCA map[int]bool
}

func (f *firstAck) Acked(v core.ConnView, i int, n int, inCA bool) float64 {
	if _, seen := f.inCA[i]; !seen {
		f.inCA[i] = inCA
	}
	return f.Controller.Acked(v, i, n, inCA)
}

func TestMultipathSubflowConfig(t *testing.T) {
	ctrl := &firstAck{Controller: core.NewOLIA(), inCA: map[int]bool{}}
	rig := newTwoLinkRig(6, rate10M, 1, 1, ctrl)
	rig.conn.Start(0)
	// After Start with 2 subflows, each subflow must begin in congestion
	// avoidance with a 1-packet window (§IV-B).
	for i, sf := range rig.conn.Subflows() {
		if w := sf.Src.CwndPkts(); w != 1 {
			t.Fatalf("subflow %d cwnd %v, want 1", i, w)
		}
	}
	rig.run(sim.Second)
	for i := range rig.conn.Subflows() {
		if inCA, seen := ctrl.inCA[i]; !seen || !inCA {
			t.Fatalf("subflow %d not in CA at start (acked %v)", i, seen)
		}
	}
}

func TestSinglePathConnKeepsTCPDefaults(t *testing.T) {
	s := sim.New(1)
	ctrl := &firstAck{Controller: core.NewOLIA(), inCA: map[int]bool{}}
	conn := New(s, "sp", ctrl, tcp.Config{})
	sf := conn.AddSubflow(0)
	link := netem.NewLink(s, netem.LinkConfig{RateBps: rate10M, Delay: sim.Millisecond, Kind: netem.QueueDropTail}, "l")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: rate10M, Delay: sim.Millisecond, Kind: netem.QueueDropTail}, "r")
	sf.SetRoutes(netem.NewRoute(link.Q, link.P, sf.Sink), netem.NewRoute(rev.Q, rev.P, sf.Src))
	conn.Start(0)
	if w := sf.Src.CwndPkts(); w != 2 {
		t.Fatalf("single-path cwnd %v, want TCP default 2", w)
	}
	s.RunUntil(100 * sim.Millisecond)
	if inCA, seen := ctrl.inCA[0]; !seen || inCA {
		t.Fatalf("single-path conn must slow-start (acked %v)", seen)
	}
}

func TestStartWithoutSubflowsPanics(t *testing.T) {
	s := sim.New(1)
	conn := New(s, "x", core.NewOLIA(), tcp.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	conn.Start(0)
}

func TestNilControllerPanics(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(s, "x", nil, tcp.Config{})
}
