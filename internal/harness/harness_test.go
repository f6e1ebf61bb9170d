package harness

import (
	"context"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
)

// tinyConfig keeps each experiment to a fraction of a second of wall time.
func tinyConfig() Config {
	return Config{
		Duration:   8 * sim.Second,
		Warmup:     2 * sim.Second,
		DCDuration: sim.Second,
		DCWarmup:   250 * sim.Millisecond,
		Seeds:      1,
		BaseSeed:   7,
		FatTreeK:   4,
		Subflows:   []int{2, 3},
	}
}

// runText collects one experiment and renders its table.
func runText(t *testing.T, id string, cfg Config) string {
	t.Helper()
	r, err := Get(id).CollectResult(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("%s (Workers=%d): %v", id, cfg.Workers, err)
	}
	var b strings.Builder
	if err := RenderText(r, &b); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1b", "fig1c", "table1", "fig4a", "fig4b", "fig5b", "fig5c",
		"fig5d", "fig7", "fig8", "fig9", "fig10", "table2", "fig11",
		"fig12", "fig13a", "fig13b", "fig14", "table3", "fig17",
		"ablation-epsilon", "ablation-queue", "ablation-ssthresh",
		"ablation-cap", "ablation-delack", "ext-probe", "ext-rwnd",
		"ext-streams", "ext-rtt",
	}
	for _, id := range want {
		if Get(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(Experiments()) < len(want) {
		t.Fatalf("registry has %d entries, want at least %d", len(Experiments()), len(want))
	}
	if len(IDs()) != len(Experiments()) {
		t.Fatal("IDs/Experiments mismatch")
	}
	if Get("nope") != nil {
		t.Fatal("unknown ID should be nil")
	}
}

func TestExperimentMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Plan == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate experiment ID did not panic")
		}
	}()
	register(&Experiment{
		ID: "fig1b", PaperRef: "test", Title: "duplicate probe",
		Plan: closedForm(func() (*Result, error) { return &Result{}, nil }),
	})
}

// The analytic experiments are cheap; run them at full fidelity and verify
// headline numbers from the paper appear in the right relationships.
func TestAnalyticExperimentsRun(t *testing.T) {
	cfg := DefaultConfig()
	for _, id := range []string{"fig4a", "fig4b", "fig5b", "fig17"} {
		if out := runText(t, id, cfg); len(strings.Split(out, "\n")) < 5 {
			t.Fatalf("%s produced too little output:\n%s", id, out)
		}
	}
}

func TestScenarioExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := tinyConfig()
	for _, id := range []string{"fig1b", "table1", "fig7"} {
		if runText(t, id, cfg) == "" {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestDatacenterExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := tinyConfig()
	for _, id := range []string{"fig13a", "table3"} {
		if runText(t, id, cfg) == "" {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestDCThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := tinyConfig()
	// MPTCP with several subflows must beat single-path TCP on aggregate
	// (the core Fig. 13(a) claim).
	tcp := dcThroughput(context.Background(), cfg, "tcp", 1, 1)
	olia := dcThroughput(context.Background(), cfg, "olia", 3, 1)
	var tcpSum, oliaSum float64
	for i := range tcp {
		tcpSum += tcp[i]
		oliaSum += olia[i]
	}
	if oliaSum <= tcpSum {
		t.Fatalf("OLIA aggregate %.0f%% not above TCP %.0f%%", oliaSum, tcpSum)
	}
}

func TestMeanAfterExcludesWarmup(t *testing.T) {
	var ts []sim.Time
	var vs []float64
	for i := 0; i <= 10; i++ {
		at := (100 * sim.Millisecond).Scale(i)
		v := 10.0
		if at < 500*sim.Millisecond {
			v = 100
		}
		ts, vs = append(ts, at), append(vs, v)
	}
	if got := meanAfter(ts, vs, 500*sim.Millisecond); got != 10 {
		t.Fatalf("meanAfter %v, want 10", got)
	}
	if got := meanAfter(ts, vs, 10*sim.Second); got != 0 {
		t.Fatalf("meanAfter beyond data %v, want 0", got)
	}
}

func TestFlipsMetric(t *testing.T) {
	a := []float64{10, 10, 1, 10}
	b := []float64{1, 1, 10, 1}
	if got := flips(a, b); got != 2 {
		t.Fatalf("flips %d, want 2", got)
	}
	// No dominance changes: zero flips.
	c := []float64{10, 12, 9}
	d := []float64{1, 2, 3}
	if got := flips(c, d); got != 0 {
		t.Fatalf("flips %d, want 0", got)
	}
}
