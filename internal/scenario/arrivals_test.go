package scenario

import (
	"testing"

	"mptcpsim/internal/sim"
)

// duplex is a hand-built two-link network, one link per direction, measured
// over [warmupSec, warmupSec+secs]; route crosses it.
func duplex(seed int64, rateMbps, warmupSec, secs float64) (n *Net, route []Route) {
	n = NewNet("duplex", seed, sim.Seconds(warmupSec), sim.Seconds(secs))
	ls := LinkSpec{RateMbps: rateMbps, DelayMs: 5, Queue: QueueDropTail, BufferPkts: 1000}
	n.AddLink(ls)
	n.AddLink(ls)
	return n, []Route{{Fwd: []int{0}, Rev: []int{1}}}
}

func shortFlows(n *Net, route []Route, size int64, meanGap, until sim.Time) *Arrivals {
	return n.AddArrivals("short", &FlowSpec{Algorithm: AlgoTCP, FlowBytes: size}, route, meanGap, 0, until)
}

func TestNewBulkTransfers(t *testing.T) {
	n, route := duplex(1, 10, 0, 10)
	f := n.AddFlow("bulk", &FlowSpec{Algorithm: AlgoTCP}, route, 0)
	runClean(t, n)
	if f.GoodputBytes() < 8_000_000 {
		t.Fatalf("bulk goodput %d", f.GoodputBytes())
	}
}

func TestShortFlowsGenerateAndComplete(t *testing.T) {
	n, route := duplex(3, 100, 0, 12)
	g := shortFlows(n, route, 70_000, 200*sim.Millisecond, 10*sim.Second)
	runClean(t, n)
	// ~50 arrivals expected over 10 s at one per 200 ms.
	if g.Started < 25 || g.Started > 100 {
		t.Fatalf("started %d flows, expected ≈50", g.Started)
	}
	if len(g.Done) < g.Started-2 {
		t.Fatalf("completed %d of %d", len(g.Done), g.Started)
	}
	for _, ct := range g.Done {
		if ct <= 0 || ct > 5 {
			t.Fatalf("implausible completion time %v s", ct)
		}
	}
}

func TestShortFlowsMeanArrivalRate(t *testing.T) {
	n, route := duplex(4, 1000, 0, 61)
	g := shortFlows(n, route, 7_000, 100*sim.Millisecond, 60*sim.Second)
	runClean(t, n)
	// 600 expected; Poisson stdev ~24.5, allow ±5σ.
	if g.Started < 480 || g.Started > 720 {
		t.Fatalf("started %d, want ≈600", g.Started)
	}
}

func TestShortFlowsActiveAccounting(t *testing.T) {
	n, route := duplex(5, 100, 0, 10)
	g := shortFlows(n, route, 15_000, 50*sim.Millisecond, 2*sim.Second)
	rep := runClean(t, n)
	if g.Active != 0 {
		t.Fatalf("active %d after drain, want 0", g.Active)
	}
	if g.Started != len(g.Done) {
		t.Fatalf("started %d != done %d", g.Started, len(g.Done))
	}
	if len(rep.Flows) != g.Started {
		t.Fatalf("%d flows reported, %d started", len(rep.Flows), g.Started)
	}
}

func TestShortFlowsBadParamsPanic(t *testing.T) {
	n, route := duplex(1, 1, 0, 1)
	add := func(algo string, size int64, gap sim.Time) func() {
		return func() {
			n.AddArrivals("short", &FlowSpec{Algorithm: algo, FlowBytes: size}, route, gap, 0, sim.Second)
		}
	}
	for name, fn := range map[string]func(){
		"no size":       add(AlgoTCP, 0, sim.Second),
		"no gap":        add(AlgoTCP, 100, 0),
		"not plain TCP": add("olia", 100, sim.Second),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRunAccountsFlowsAddedMidRun adds a flow from an event after the
// warm-up snapshot: it must appear in the report, be sampled by the monitor
// (whose per-endpoint marks were sized before it existed), count in the
// conservation sum — its access pipe included — and have its window measured
// from its birth.
func TestRunAccountsFlowsAddedMidRun(t *testing.T) {
	n, route := duplex(9, 10, 1, 4)
	route[0].DelayMs = 20 // an access pipe, with packets in flight at the end
	early := n.AddFlow("early", &FlowSpec{Algorithm: AlgoTCP}, route, 0)
	var late *Flow
	n.Sim.At(2*sim.Second, func() {
		late = n.AddFlow("late", &FlowSpec{Algorithm: "olia"}, []Route{route[0], route[0]}, n.Sim.Now())
	})
	rep := runClean(t, n)

	if len(rep.Flows) != 2 || rep.Flows[1].Name != "late" || rep.Flows[1].Algorithm != "olia" {
		t.Fatalf("report flows: %+v", rep.Flows)
	}
	if len(late.Window) != 2 || late.WindowBytes() == 0 {
		t.Fatalf("late flow window %v", late.Window)
	}
	if late.WindowBytes() != late.GoodputBytes() {
		t.Fatalf("late flow window %d bytes, delivered %d: the base of a flow born inside the window is zero",
			late.WindowBytes(), late.GoodputBytes())
	}
	if early.WindowBytes() >= early.GoodputBytes() {
		t.Fatalf("early flow window %d not below its total %d: warm-up delivery was not subtracted",
			early.WindowBytes(), early.GoodputBytes())
	}
	if rep.Flows[1].GoodputMbps <= 0 || rep.Flows[1].SentPkts == 0 {
		t.Fatalf("late flow report %+v", rep.Flows[1])
	}
}
