package scenario

import (
	"context"
	"math"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// twoPathSpec is a small valid scenario used across tests.
func twoPathSpec() *Spec {
	return &Spec{
		Name: "test", Seed: 7, WarmupSec: 1, DurationSec: 2,
		Links: []LinkSpec{
			{RateMbps: 4},
			{RateMbps: 2, Queue: QueueDropTail, BufferPkts: 50},
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: 20},
			{Links: []int{1}, DelayMs: 40},
		},
		Flows: []FlowSpec{
			{Name: "mp", Algorithm: "olia", Paths: []int{0, 1}},
			{Name: "bg", Algorithm: AlgoTCP, Paths: []int{1}, Count: 2, StartSec: 0.2},
		},
	}
}

// TestSpecValidate locks every structural check with its message.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // empty means valid
	}{
		{"valid", func(sp *Spec) {}, ""},
		{"zero duration", func(sp *Spec) { sp.DurationSec = 0 }, "duration must be positive"},
		{"negative warmup", func(sp *Spec) { sp.WarmupSec = -1 }, "negative warmup"},
		{"negative reverse rate", func(sp *Spec) { sp.ReverseRateMbps = -1 }, "reverse-path"},
		{"no links", func(sp *Spec) { sp.Links = nil }, "no links"},
		{"zero link rate", func(sp *Spec) { sp.Links[0].RateMbps = 0 }, "rate must be positive"},
		{"negative link delay", func(sp *Spec) { sp.Links[0].DelayMs = -4 }, "negative delay"},
		{"loss out of range", func(sp *Spec) { sp.Links[0].LossPct = 100 }, "outside [0, 100)"},
		{"negative buffer", func(sp *Spec) { sp.Links[1].BufferPkts = -1 }, "negative buffer"},
		{"unknown queue", func(sp *Spec) { sp.Links[0].Queue = "codel" }, "unknown queue kind"},
		{"no paths", func(sp *Spec) { sp.Paths = nil }, "no paths"},
		{"empty path", func(sp *Spec) { sp.Paths[0].Links = nil }, "crosses no links"},
		{"negative path delay", func(sp *Spec) { sp.Paths[0].DelayMs = -1 }, "negative delay"},
		{"bad link index", func(sp *Spec) { sp.Paths[0].Links = []int{9} }, "references link 9"},
		{"no flows", func(sp *Spec) { sp.Flows = nil }, "no flows"},
		{"unknown algorithm", func(sp *Spec) { sp.Flows[0].Algorithm = "cubic" }, `unknown algorithm "cubic"`},
		{"flow without paths", func(sp *Spec) { sp.Flows[0].Paths = nil }, "uses no paths"},
		{"tcp with two paths", func(sp *Spec) { sp.Flows[1].Paths = []int{0, 1} }, "plain TCP needs exactly one path"},
		{"bad path index", func(sp *Spec) { sp.Flows[0].Paths = []int{5} }, "references path 5"},
		{"negative count", func(sp *Spec) { sp.Flows[1].Count = -2 }, "negative count"},
		{"negative start", func(sp *Spec) { sp.Flows[0].StartSec = -1 }, "negative start"},
		{"stop before start", func(sp *Spec) { sp.Flows[1].StopSec = 0.1 }, "not after start"},
		{"negative flow bytes", func(sp *Spec) { sp.Flows[0].FlowBytes = -1 }, "negative flow bytes"},
		{"negative chunk bytes", func(sp *Spec) { sp.Flows[0].ChunkBytes = -1 }, "negative chunk bytes"},
		{"chunk without scheduler", func(sp *Spec) { sp.Flows[0].ChunkBytes = 4096 }, "chunk bytes without a scheduler"},
		{"negative window cap", func(sp *Spec) { sp.Flows[0].MaxCwndPkts = -1 }, "window cap must be finite"},
		{"NaN window cap", func(sp *Spec) { sp.Flows[1].MaxCwndPkts = math.NaN() }, "window cap must be finite"},
		{"infinite window cap", func(sp *Spec) { sp.Flows[0].MaxCwndPkts = math.Inf(1) }, "window cap must be finite"},
		{"valid window cap", func(sp *Spec) { sp.Flows[0].MaxCwndPkts, sp.Flows[1].MaxCwndPkts = 8, 4 }, ""},
		{"uncapped tcp", func(sp *Spec) { sp.Flows[1].NoIncreaseCap = true }, "no coupled increase cap"},
		{"valid uncapped multipath", func(sp *Spec) { sp.Flows[0].NoIncreaseCap = true }, ""},
		{"unknown scheduler", func(sp *Spec) {
			sp.Flows[0].FlowBytes = 1 << 20
			sp.Flows[0].Scheduler = "lifo"
		}, `unknown scheduler "lifo"`},
		{"scheduler on tcp", func(sp *Spec) {
			sp.Flows[1].FlowBytes = 1 << 20
			sp.Flows[1].Scheduler = "minrtt"
		}, "needs a multipath algorithm"},
		{"scheduler without flow bytes", func(sp *Spec) { sp.Flows[0].Scheduler = "minrtt" }, "needs finite flow bytes"},
		{"scheduler flow bytes below paths", func(sp *Spec) {
			sp.Flows[0].FlowBytes = 1
			sp.Flows[0].Scheduler = "minrtt"
		}, "flow bytes across"},
		{"scheduler with stop", func(sp *Spec) {
			sp.Flows[0].FlowBytes = 1 << 20
			sp.Flows[0].Scheduler = "minrtt"
			sp.Flows[0].StopSec = 1.5
		}, "cannot set a stop time"},
		{"valid scheduler", func(sp *Spec) {
			sp.Flows[0].FlowBytes = 1 << 20
			sp.Flows[0].Scheduler = "ecf"
			sp.Flows[0].ChunkBytes = 8192
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := twoPathSpec()
			tc.mutate(sp)
			err := sp.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			if _, cerr := Compile(sp); cerr == nil {
				t.Fatal("Compile accepted the invalid spec")
			}
		})
	}
}

func TestCompileStructure(t *testing.T) {
	n, err := Compile(twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Links) != 2 || len(n.Flows) != 3 || len(n.Groups) != 2 {
		t.Fatalf("compiled %d links, %d flows, %d groups", len(n.Links), len(n.Flows), len(n.Groups))
	}
	if len(n.Groups[0]) != 1 || len(n.Groups[1]) != 2 {
		t.Fatalf("group sizes %d/%d, want 1/2", len(n.Groups[0]), len(n.Groups[1]))
	}
	mp := n.Groups[0][0]
	if mp.Conn == nil || len(mp.Srcs) != 2 || len(mp.Sinks) != 2 {
		t.Fatalf("multipath flow not wired: %+v", mp)
	}
	for _, bg := range n.Groups[1] {
		if bg.Conn != nil || len(bg.Srcs) != 1 {
			t.Fatalf("tcp flow wired as multipath: %+v", bg)
		}
	}
	if n.Links[1].LimitPkts != 50 {
		t.Fatalf("droptail limit %d, want 50", n.Links[1].LimitPkts)
	}
}

func TestRunMeasuresAndHoldsInvariants(t *testing.T) {
	rep, err := Run(context.Background(), twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations on a plain scenario: %v", rep.Violations)
	}
	var total float64
	for _, f := range rep.Flows {
		total += f.GoodputMbps
	}
	// Two bottlenecks of 4+2 Mb/s: aggregate goodput must be positive and
	// below the cut: 6 Mb/s.
	if total <= 1 || total > 6 {
		t.Fatalf("aggregate goodput %.2f Mb/s implausible for a 6 Mb/s cut", total)
	}
	if rep.Flows[0].PathMbps[0] <= 0 || rep.Flows[0].PathMbps[1] <= 0 {
		t.Fatalf("multipath flow idle on a path: %v", rep.Flows[0].PathMbps)
	}
}

// TestNetRunWindowAndDelayedAcks drives a compiled Net the way the harness
// does: mutate it (delayed ACKs, which break one-ACK-per-segment), run it,
// and read the exact window bytes. Conservation must still hold, and
// Flow.Window must agree with the report's rates.
func TestNetRunWindowAndDelayedAcks(t *testing.T) {
	sp := twoPathSpec()
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range n.Flows {
		for _, k := range f.Sinks {
			k.SetDelayedAck(40 * sim.Millisecond)
		}
	}
	rep, err := n.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations under delayed ACKs: %v", rep.Violations)
	}
	var held int64
	for i, f := range n.Flows {
		for _, k := range f.Sinks {
			held += k.RecvPkts() - k.AckPkts()
		}
		if got := stats.Mbps(f.WindowBytes(), sp.DurationSec); math.Abs(got-rep.Flows[i].GoodputMbps) > 1e-9 {
			t.Fatalf("flow %s: window bytes give %.6f Mb/s, report says %.6f", f.Name, got, rep.Flows[i].GoodputMbps)
		}
	}
	if held == 0 {
		t.Fatal("delayed ACKs withheld nothing: the test does not exercise the identity's unacked term")
	}
	if got := GroupWindowBytes(n.Groups[1]); got != n.Groups[1][0].WindowBytes()+n.Groups[1][1].WindowBytes() {
		t.Fatalf("group window bytes %d do not sum the replicas", got)
	}
}

func TestRunRerunIdentity(t *testing.T) {
	a, err := Run(context.Background(), twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same spec, different runs:\n%+v\n%+v", a.Digest(), b.Digest())
	}
	// A different seed must actually change a randomized run (the digest
	// is not a constant). Jittered starts consume the seed's stream.
	jitter := func(seed int64) Digest {
		sp := twoPathSpec()
		sp.Seed = seed
		sp.Flows[1].StartJitter = true
		rep, err := Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Digest()
	}
	if jitter(7) == jitter(8) {
		t.Fatal("different seeds produced identical digests")
	}
}

func TestStopSecPausesFlow(t *testing.T) {
	run := func(stop float64) *RunReport {
		sp := twoPathSpec()
		sp.WarmupSec, sp.DurationSec = 0.5, 3
		sp.Flows[1].StopSec = stop
		rep, err := Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("violations with StopSec=%g: %v", stop, rep.Violations)
		}
		return rep
	}
	bgMbps := func(rep *RunReport) float64 {
		var total float64
		for _, f := range rep.Flows[1:] {
			total += f.GoodputMbps
		}
		return total
	}
	// Background flows stopped at t=1 carry only the first half-second of
	// the [0.5, 3.5] window (plus drained in-flight data); they must
	// deliver far less than when they run the whole window.
	stopped, running := bgMbps(run(1)), bgMbps(run(0))
	if stopped >= running/2 {
		t.Fatalf("stopped background delivered %.2f Mb/s vs %.2f unstopped; Pause had no effect", stopped, running)
	}
}

func TestRandomLossCountsAndConserves(t *testing.T) {
	sp := twoPathSpec()
	sp.Links[1].LossPct = 2
	rep, err := Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations with random loss: %v", rep.Violations)
	}
	if rep.Queues[1].LossDropped == 0 {
		t.Fatal("2% random loss dropped nothing")
	}
}

// TestCheckCapacityFlagsOverrun exercises the capacity invariant directly
// with a fabricated report, since a correct simulation can never trip it.
func TestCheckCapacityFlagsOverrun(t *testing.T) {
	n := mustCompile(t, twoPathSpec())
	r := &RunReport{Queues: []QueueReport{{Link: 0}, {Link: 1}}}
	// Link 1 (2 Mb/s) claims to have served 1 MB in 2 s = 4 Mb/s.
	r.Queues[1].Window.SentBytes = 1 << 20
	checkCapacity(n, r)
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "link 1") {
		t.Fatalf("capacity overrun not flagged: %v", r.Violations)
	}
}

func TestFlowIDAssignment(t *testing.T) {
	sp := twoPathSpec()
	sp.Flows[0].BaseID = 1000
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	mp := n.Groups[0][0]
	if got := mp.Srcs[0].ID(); got != 1000 {
		t.Fatalf("subflow 0 ID %d, want 1000", got)
	}
	if got := mp.Srcs[1].ID(); got != 1001 {
		t.Fatalf("subflow 1 ID %d, want 1001", got)
	}
	// The next group starts on a fresh thousand block.
	if got := n.Groups[1][0].Srcs[0].ID(); got != 2000 {
		t.Fatalf("second group base ID %d, want 2000", got)
	}
}
