package mptcpsim

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestAlgorithmsList(t *testing.T) {
	got := Algorithms()
	want := []string{"fullycoupled", "lia", "olia", "uncoupled"}
	if len(got) != len(want) {
		t.Fatalf("algorithms %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("algorithms %v, want %v", got, want)
		}
	}
}

func TestSchedulersList(t *testing.T) {
	got := Schedulers()
	want := []string{"ecf", "minrtt", "pull", "redundant", "roundrobin"}
	if !slices.Equal(got, want) {
		t.Fatalf("schedulers %v, want %v", got, want)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(Experiments()) < 20 {
		t.Fatalf("only %d experiments exposed", len(Experiments()))
	}
	var b strings.Builder
	if err := NewLab().RunAll(context.Background(), []string{"fig5b"}, FormatText, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "C1/C2") {
		t.Fatalf("fig5b output:\n%s", b.String())
	}
	if err := NewLab().RunAll(context.Background(), []string{"nope"}, FormatText, &b); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestCollectExperimentStructured pins the structured facade: collecting
// an experiment yields typed columns and programmatically readable cells,
// and the same Result renders in every format.
func TestCollectExperimentStructured(t *testing.T) {
	r, err := NewLab().Collect(context.Background(), "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig5b" || r.PaperRef != "Figure 5(b)" {
		t.Fatalf("metadata not stamped: %q %q", r.ID, r.PaperRef)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows collected")
	}
	if v, ok := r.Value(0, "c1_over_c2"); !ok || v != 0.1 {
		t.Fatalf("Value(0, c1_over_c2) = %v, %v", v, ok)
	}
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		var b strings.Builder
		if err := RenderResult(r, f, &b); err != nil || b.Len() == 0 {
			t.Fatalf("RenderResult %s: err=%v, %d bytes", f, err, b.Len())
		}
	}
	if _, err := NewLab().Collect(context.Background(), "nope"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestRunAllFormatJSON pins the facade's JSON stream: one parseable array
// of Results.
func TestRunAllFormatJSON(t *testing.T) {
	var b strings.Builder
	if err := NewLab().RunAll(context.Background(), []string{"fig4a", "fig17"}, FormatJSON, &b); err != nil {
		t.Fatal(err)
	}
	var got []Result
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("RunAll JSON does not parse: %v", err)
	}
	if len(got) != 2 || got[0].ID != "fig4a" || got[1].ID != "fig17" {
		t.Fatalf("unexpected result set (%d entries)", len(got))
	}
}

// TestDiffFacade pins the regression-diff entry point.
func TestDiffFacade(t *testing.T) {
	a, err := NewLab().Collect(context.Background(), "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLab().Collect(context.Background(), "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, b); !d.Empty() {
		t.Fatalf("identical analytic runs should not differ: %+v", d)
	}
	b.Rows[0][1].Value *= 1.5
	d := Diff(a, b)
	if len(d.Cells) != 1 || d.Cells[0].Column != "lia_multi" {
		t.Fatalf("deltas %+v", d.Cells)
	}
	if d.MaxRelPct() < 49.99 || d.MaxRelPct() > 50.01 {
		t.Fatalf("MaxRelPct %v, want 50", d.MaxRelPct())
	}
}

func TestConfigs(t *testing.T) {
	q, f := DefaultConfig(), FullConfig()
	if q.FatTreeK != 4 || f.FatTreeK != 8 {
		t.Fatalf("K: quick %d full %d", q.FatTreeK, f.FatTreeK)
	}
	if f.Seeds <= q.Seeds || f.Duration <= q.Duration {
		t.Fatal("full config should be larger")
	}
	if len(f.Subflows) != 7 || f.Subflows[6] != 8 {
		t.Fatalf("full subflows %v", f.Subflows)
	}
}

// TestScenarioFacade smokes the declarative scenario entry points through
// the public API.
func TestScenarioFacade(t *testing.T) {
	rep, err := NewLab().Run(context.Background(), ScenarioSpec{
		Name: "facade", Seed: 3, WarmupSec: 0.5, DurationSec: 1,
		Links: []ScenarioLink{{RateMbps: 2}},
		Paths: []ScenarioPath{{Links: []int{0}, DelayMs: 20}},
		Flows: []ScenarioFlow{{Algorithm: "olia", Paths: []int{0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Flows[0].GoodputMbps <= 0 {
		t.Fatalf("flow idle: %+v", rep.Flows[0])
	}
	if _, err := NewLab().Run(context.Background(), ScenarioSpec{DurationSec: 1}); err == nil {
		t.Fatal("empty spec must error")
	}
	fz, err := NewLab().Campaign(context.Background(), fuzzCampaign(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if fz.Violations > 0 {
		t.Fatalf("fuzz violations: %d, in %v", fz.Violations, fz.Flagged)
	}
}

func TestAnalyzeTwoPath(t *testing.T) {
	a, err := NewLab().Analyze([]float64{0.01, 0.04}, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Best path: p=0.01: √200/0.1 pkts/s = 141.4 pkt/s ≈ 1.70 Mb/s.
	if math.Abs(a.TCPBestMbps-1.697) > 0.01 {
		t.Fatalf("TCP best %.3f", a.TCPBestMbps)
	}
	// OLIA: only the better path carries traffic.
	if a.OLIAMbps[1] != 0 {
		t.Fatalf("OLIA uses the worse path: %v", a.OLIAMbps)
	}
	// LIA: both carry traffic, 4:1 ratio (inverse loss).
	if r := a.LIAMbps[0] / a.LIAMbps[1]; math.Abs(r-4) > 1e-6 {
		t.Fatalf("LIA ratio %v, want 4", r)
	}
	// Totals equal best for both (goal 1).
	if math.Abs(a.LIAMbps[0]+a.LIAMbps[1]-a.TCPBestMbps) > 1e-9 {
		t.Fatal("LIA total != best TCP")
	}

	if _, err := NewLab().Analyze([]float64{0.1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("mismatched slices should error")
	}
	if _, err := NewLab().Analyze([]float64{0}, []float64{0.1}); err == nil {
		t.Fatal("nonpositive loss should error")
	}
}

// The paper's flagship behavioral claim at the API level: on the Fig. 6
// network with link 2 twice as crowded, OLIA retreats from the congested
// link, LIA does not.
func TestSimulateOLIAvsLIAAsymmetric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	congestedMbps := func(algo string) float64 {
		rep, err := NewLab().Run(context.Background(), PaperTwoLink(10, 5, 10, algo, 2, 2, 40))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%s: invariant violations: %v", algo, rep.Violations)
		}
		mp := rep.Flows[len(rep.Flows)-1]
		if mp.Name != "mp-0" {
			t.Fatalf("last flow is %q, want the multipath user mp-0", mp.Name)
		}
		return mp.PathMbps[1]
	}
	if olia, lia := congestedMbps("olia"), congestedMbps("lia"); olia >= lia {
		t.Fatalf("congested link: OLIA %.3f >= LIA %.3f Mb/s", olia, lia)
	}
}
