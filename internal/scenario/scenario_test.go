package scenario

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/tcp"
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

// featureSpec is twoPathSpec with every optional path, flow and trace field
// set: path 0's ACKs returning over a link of their own, the multipath user
// under probe control, delayed ACKs at every receiver, a serial group of
// three finite transfers, and a trace with every probe kind.
func featureSpec() *Spec {
	sp := twoPathSpec()
	sp.Links = append(sp.Links, LinkSpec{RateMbps: 10, DelayMs: 20, Queue: QueueDropTail})
	sp.Paths[0].Rev = []int{2}
	sp.Flows[0].ProbeControl = true
	sp.Flows = append(sp.Flows, FlowSpec{Name: "xfer", Algorithm: AlgoTCP, Paths: []int{0},
		Count: 3, FlowBytes: 60_000, Serial: true})
	for i := range sp.Flows {
		sp.Flows[i].DelayedAck = true
	}
	sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{
		"cwnd mp 0 0", "srtt mp 0 1", "alpha mp 0 0", "ell mp 0 1", "cwnd xfer 2 0", "srtt bg 1 0"}}
	return sp
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
		{"path of max links", func(sp *Spec) { sp.Paths[0].Links = make([]int, maxPathLinks) }, ""},
		{"path too long", func(sp *Spec) { sp.Paths[0].Links = make([]int, maxPathLinks+1) }, "crosses 1025 links, more than 1024"},
		{"valid reverse route", func(sp *Spec) { sp.Paths[0].Rev = []int{1, 0} }, ""},
		{"empty reverse route", func(sp *Spec) { sp.Paths[0].Rev = []int{} }, "path 0 has an empty reverse route"},
		{"bad reverse link index", func(sp *Spec) { sp.Paths[1].Rev = []int{0, 7} }, "path 1 references link 7"},
		{"reverse route too long", func(sp *Spec) { sp.Paths[0].Rev = make([]int, maxPathLinks+1) }, "reverse route crosses 1025 links, more than 1024"},
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
		{"every optional field", func(sp *Spec) { *sp = *featureSpec() }, ""},
		{"probe control on tcp", func(sp *Spec) { sp.Flows[1].ProbeControl = true }, "no subflows to suspend"},
		{"serial without flow bytes", func(sp *Spec) { sp.Flows[1].Serial = true }, "serial replicas need finite flow bytes"},
		{"serial with jitter", func(sp *Spec) {
			sp.Flows[1].Serial, sp.Flows[1].FlowBytes, sp.Flows[1].StartJitter = true, 1<<20, true
		}, "without jitter"},
		{"serial with stop", func(sp *Spec) {
			sp.Flows[1].Serial, sp.Flows[1].FlowBytes, sp.Flows[1].StopSec = true, 1<<20, 1.5
		}, "without jitter, stop time"},
		{"serial multipath without scheduler", func(sp *Spec) {
			sp.Flows[0].Serial, sp.Flows[0].FlowBytes = true, 1<<20
		}, "need a scheduler to complete"},
		{"serial with probe control", func(sp *Spec) {
			sp.Flows[0].Serial, sp.Flows[0].FlowBytes, sp.Flows[0].Scheduler = true, 1<<20, "ecf"
			sp.Flows[0].ProbeControl = true
		}, "probe control"},
		{"valid serial stream", func(sp *Spec) {
			sp.Flows[0].Serial, sp.Flows[0].FlowBytes, sp.Flows[0].Scheduler, sp.Flows[0].Count = true, 1<<20, "ecf", 3
		}, ""},
		{"unknown probe kind", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"rate mp 0 0"}}
		}, `unknown kind "rate"`},
		{"malformed probe", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"cwnd mp 0"}}
		}, "want \"<kind> <group> <replica> <path>\""},
		{"probe of no group", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"cwnd nobody 0 0"}}
		}, `no flow group "nobody"`},
		{"probe replica out of range", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"cwnd bg 2 0"}}
		}, `group "bg" has 2 replicas over 1 paths`},
		{"probe path out of range", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"srtt mp 0 2"}}
		}, `group "mp" has 1 replicas over 2 paths`},
		{"negative probe index", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"cwnd mp -1 0"}}
		}, "has 1 replicas"},
		{"padded probe index", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"cwnd mp 0 01"}}
		}, "has 1 replicas"},
		{"alpha without α", func(sp *Spec) {
			sp.Flows[0].Algorithm = "lia"
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"alpha mp 0 0"}}
		}, "lia flows have no α or ℓ"},
		{"ell on tcp", func(sp *Spec) {
			sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"ell bg 0 0"}}
		}, "tcp flows have no α or ℓ"},
		{"zero trace period", func(sp *Spec) { sp.Trace = &TraceSpec{Probes: []string{"cwnd mp 0 0"}} }, "trace period 0 ms outside"},
		{"negative trace period", func(sp *Spec) { sp.Trace = &TraceSpec{PeriodMs: -250} }, "trace period -250 ms outside"},
		{"sub-nanosecond trace period", func(sp *Spec) { sp.Trace = &TraceSpec{PeriodMs: 1e-7} }, "trace period 1e-07 ms outside"},
		{"trace period past a run", func(sp *Spec) { sp.Trace = &TraceSpec{PeriodMs: 2e9} }, "trace period 2e+09 ms outside"},
		{"trace of no probes", func(sp *Spec) { sp.Trace = &TraceSpec{PeriodMs: 1e9} }, ""},
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

// floatLeaves calls visit on every float64 reachable from v, through
// structs, slices and non-nil pointers, in field order.
func floatLeaves(v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		visit(path, v)
	case reflect.Pointer:
		if !v.IsNil() {
			floatLeaves(v.Elem(), path, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			floatLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			floatLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	}
}

// TestValidateRejectsNonFinite sets NaN, +Inf and −Inf in turn in every
// float field of a spec that uses them all: Validate rejects each. A range
// check written as `v < lo || v > hi` lets NaN through; a NaN loss used to
// compile to a lossless link.
func TestValidateRejectsNonFinite(t *testing.T) {
	full := func() *Spec {
		sp := twoPathSpec()
		sp.ReverseRateMbps, sp.ReverseDelayMs = 500, 30
		sp.Links[0].DelayMs, sp.Links[0].LossPct = 1, 0.5
		sp.Flows[1].StopSec, sp.Flows[1].MaxCwndPkts = 1.5, 8
		sp.Timeline = []TimelineEvent{{AtSec: 1, Link: &LinkSetpoint{Link: 0, RateMbps: 1, DelayMs: Float(5), LossPct: Float(1)}}}
		sp.Trace = &TraceSpec{PeriodMs: 250, Probes: []string{"cwnd mp 0 0"}}
		return sp
	}
	if err := full().Validate(); err != nil {
		t.Fatal(err)
	}
	var fields []string
	floatLeaves(reflect.ValueOf(full()).Elem(), "Spec", func(path string, _ reflect.Value) { fields = append(fields, path) })
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, field := range fields {
			sp, n := full(), 0
			floatLeaves(reflect.ValueOf(sp).Elem(), "Spec", func(_ string, v reflect.Value) {
				if n == i {
					v.SetFloat(bad)
				}
				n++
			})
			if err := sp.Validate(); err == nil {
				t.Errorf("%s = %g: Validate accepted it", field, bad)
			}
		}
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

// TestNetRunWindowAndDelayedAcks runs a spec with delayed ACKs, which break
// one-ACK-per-segment, and reads the exact window bytes from the report.
// Conservation must still hold, WindowBytes must agree with the report's
// rates, and RunReport.Group must find each group's replicas.
func TestNetRunWindowAndDelayedAcks(t *testing.T) {
	sp := twoPathSpec()
	for i := range sp.Flows {
		sp.Flows[i].DelayedAck = true
	}
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
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
		var delivered int64
		for _, k := range f.Sinks {
			held += k.RecvPkts() - k.AckPkts()
			delivered += k.GoodputBytes()
		}
		fr := &rep.Flows[i]
		if got := stats.Mbps(fr.WindowBytes, sp.DurationSec); math.Abs(got-fr.GoodputMbps) > 1e-9 {
			t.Fatalf("flow %s: window bytes give %.6f Mb/s, report says %.6f", f.Name, got, fr.GoodputMbps)
		}
		if fr.WindowBytes <= 0 || fr.WindowBytes >= delivered {
			t.Fatalf("flow %s: %d window bytes of %d delivered since t=0", f.Name, fr.WindowBytes, delivered)
		}
	}
	if held == 0 {
		t.Fatal("delayed ACKs withheld nothing: the test does not exercise the identity's unacked term")
	}
	for gi := range sp.Flows {
		g := rep.Group(sp, sp.Flows[gi].Name)
		if len(g) != len(n.Groups[gi]) {
			t.Fatalf("group %q: %d reports for %d replicas", sp.Flows[gi].Name, len(g), len(n.Groups[gi]))
		}
		for r, f := range n.Groups[gi] {
			if g[r].Name != f.Name {
				t.Fatalf("group %q replica %d: report of %s", sp.Flows[gi].Name, r, g[r].Name)
			}
		}
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

// TestNetRunsOnce: a second Run of one Net returns an error naming the
// network and touches nothing: the first run's clock, event count and
// kernel counters stand. The first run handed its memory back, so the
// kernel refuses to advance the finished network and its packet pool to
// hand out a packet, and a cancelled run hands it back too.
func TestNetRunsOnce(t *testing.T) {
	n, err := Compile(twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	first, err := n.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	now, processed, kernel := n.Sim.Now(), n.Sim.Processed(), n.Sim.Stats()
	if st := first.Stats; st.HeapMax != kernel.HeapMax || st.Events != kernel.Events || st.DataMax == 0 || st.AcksMax == 0 {
		t.Fatalf("the run's Stats %+v, the kernel's %+v", st, kernel)
	}
	rep, err := n.Run(context.Background())
	if rep != nil || err == nil || err.Error() != `scenario "test": Run called again: a Net runs once` {
		t.Fatalf("second Run: report %v, error %v", rep, err)
	}
	if n.Sim.Now() != now || n.Sim.Processed() != processed || n.Sim.Stats() != kernel {
		t.Fatalf("second Run moved the network: now %v -> %v, processed %d -> %d, kernel counters %+v -> %+v",
			now, n.Sim.Now(), processed, n.Sim.Processed(), kernel, n.Sim.Stats())
	}
	if msg := fmt.Sprint(recoverFrom(func() { n.Sim.RunUntil(2 * now) })); !strings.Contains(msg, "RunUntil after ReleaseRand") {
		t.Errorf("advancing a finished network: panic %q", msg)
	}

	cancelled, err := Compile(twoPathSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cancelled.Run(ctx); err == nil {
		t.Fatal("a cancelled run returned no error")
	}
	for name, net := range map[string]*Net{"finished": n, "cancelled": cancelled} {
		pool := netem.PoolFor(net.Sim)
		if msg := fmt.Sprint(recoverFrom(func() { pool.NewData(0, 0, netem.MSS, 0, nil) })); !strings.Contains(msg, "after Release") {
			t.Errorf("a packet from the %s network's pool: panic %q", name, msg)
		}
	}
}

// recoverFrom runs f and returns what it panicked with, or nil.
func recoverFrom(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
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

// TestSerialStartsOnCompletion: a serial group is the chain of transfers
// wired before the run and started by hand, each from its predecessor's
// completion: the same traffic, event for event, with every completion
// time in the report.
func TestSerialStartsOnCompletion(t *testing.T) {
	sp := featureSpec()
	sp.Trace = nil
	rep := mustRun(t, sp)

	bare := featureSpec()
	bare.Trace = nil
	xfer := bare.Flows[2]
	bare.Flows = bare.Flows[:2]
	n := mustCompile(t, bare)
	chain := make([]*Flow, xfer.Count)
	for i := range chain {
		chain[i] = n.newFlow(fmt.Sprintf("xfer-%d", i), &xfer)
	}
	var took []float64
	for i, f := range chain {
		f.Srcs[0].OnComplete = func(s *tcp.Src) {
			took = append(took, s.CompletionTime().Sec())
			if i+1 < len(chain) {
				chain[i+1].start(n.Sim.Now())
			}
		}
	}
	chain[0].start(sim.Seconds(xfer.StartSec))
	byHand := runClean(t, n)

	if rep.Digest() != byHand.Digest() {
		t.Fatalf("the serial group digests %+v, the hand-chained transfers %+v", rep.Digest(), byHand.Digest())
	}
	group := rep.Group(sp, "xfer")
	if len(took) != xfer.Count || len(group) != xfer.Count {
		t.Fatalf("%d of %d hand-chained transfers completed, %d reported", len(took), xfer.Count, len(group))
	}
	for i := range group {
		if group[i].CompletionSec != took[i] {
			t.Errorf("transfer %d: reported %v s, completed in %v s", i, group[i].CompletionSec, took[i])
		}
	}
}

// TestFlowAfterRunPanics: a network's set of flows is fixed once Run
// starts, so a flow wired from an event, or after the run, panics.
func TestFlowAfterRunPanics(t *testing.T) {
	sp := twoPathSpec()
	n := mustCompile(t, sp)
	runClean(t, n)
	defer func() {
		if recover() == nil {
			t.Fatal("a flow was wired after Run started")
		}
	}()
	n.newFlow("late", &sp.Flows[1])
}

// TestProbeControlReportsSuspends: a multipath user whose second path is
// crowded by eight TCP flows suspends it under probe control, and the
// report counts the suspensions the connection made; without probe control
// it counts none.
func TestProbeControlReportsSuspends(t *testing.T) {
	crowded := func(on bool) *Spec {
		sp := twoPathSpec()
		sp.DurationSec = 20
		sp.Flows[1].Count = 8
		sp.Flows[0].ProbeControl = on
		return sp
	}
	n := mustCompile(t, crowded(true))
	rep := runClean(t, n)
	conn := n.Groups[0][0].Conn
	if got, want := rep.Flows[0].Suspends, conn.SuspendCount(0)+conn.SuspendCount(1); got != want || got == 0 {
		t.Fatalf("reported %d suspensions, the connection made %d; want the same, and some", got, want)
	}
	if off := mustRun(t, crowded(false)); off.Flows[0].Suspends != 0 || off.Digest() == rep.Digest() {
		t.Fatalf("without probe control: %d suspensions, digest %+v", off.Flows[0].Suspends, off.Digest())
	}
}
