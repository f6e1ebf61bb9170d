// Benchmarks: one per table and figure of the paper, plus the DESIGN.md
// ablations and the sequential-vs-parallel registry comparison. Each
// per-experiment benchmark prints its experiment's rows once (so
// `go test -bench=. | tee bench_output.txt` captures the reproduced tables)
// and reports the wall time per regeneration. They are developer tools
// (`make bench-tables`), gated by nothing; the repository's benchmark, with
// the kernel and per-layer rigs, is bench/.
//
// Scale: DefaultConfig by default; set MPTCPSIM_FULL=1 for the paper-scale
// configuration (much slower: 120 s runs, 5 seeds, K=8 FatTree).
package mptcpsim

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"mptcpsim/internal/sim"
)

func benchConfig() Config {
	if os.Getenv("MPTCPSIM_FULL") == "1" {
		return FullConfig()
	}
	return DefaultConfig()
}

// printedOnce ensures each experiment's table reaches stdout exactly once
// even when the benchmark framework reruns with larger b.N.
var printedOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	lab := NewLab(WithConfig(benchConfig()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if _, dup := printedOnce.LoadOrStore(id, true); !dup {
			fmt.Printf("\n===== %s =====\n", id)
			w = os.Stdout
		}
		r, err := lab.Collect(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		if err := RenderResult(r, FormatText, w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scenario A (Figures 1, 9, 10) ---

func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }
func BenchmarkFig1c(b *testing.B) { benchExperiment(b, "fig1c") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// --- Scenario B (Figure 4, Tables I and II, Figure 17) ---

func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }

// --- Scenario C (Figures 5, 11, 12) ---

func BenchmarkFig5b(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B) { benchExperiment(b, "fig5c") }
func BenchmarkFig5d(b *testing.B) { benchExperiment(b, "fig5d") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// --- Illustrations (Figures 7 and 8) ---

func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// --- Data center (Figures 13, 14, Table III) ---

func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// --- Ablations (DESIGN.md §4) ---

func BenchmarkAblationEpsilonFamily(b *testing.B)   { benchExperiment(b, "ablation-epsilon") }
func BenchmarkAblationQueueDiscipline(b *testing.B) { benchExperiment(b, "ablation-queue") }
func BenchmarkAblationSsthresh(b *testing.B)        { benchExperiment(b, "ablation-ssthresh") }
func BenchmarkAblationOliaCap(b *testing.B)         { benchExperiment(b, "ablation-cap") }

// --- Extensions (the paper's §VII future work) ---

func BenchmarkExtProbeSuspension(b *testing.B)  { benchExperiment(b, "ext-probe") }
func BenchmarkExtReceiveWindow(b *testing.B)    { benchExperiment(b, "ext-rwnd") }
func BenchmarkExtStreams(b *testing.B)          { benchExperiment(b, "ext-streams") }
func BenchmarkExtRTTHeterogeneity(b *testing.B) { benchExperiment(b, "ext-rtt") }
func BenchmarkAblationDelayedAck(b *testing.B)  { benchExperiment(b, "ablation-delack") }

// --- Registry: sequential vs parallel (internal/runner) ---

// registryBenchIDs is a simulation-heavy subset spanning every experiment
// family, used to compare worker counts on the shared pool.
var registryBenchIDs = []string{"fig1b", "table1", "fig7", "fig13a", "ablation-epsilon"}

// registryBenchConfig shrinks runs so the registry subset completes in a
// few seconds while still fanning out dozens of independent (experiment ×
// point × seed) jobs — enough for the worker pool to matter.
func registryBenchConfig(workers int) Config {
	return Config{
		Duration:   3 * sim.Second,
		Warmup:     sim.Second,
		DCDuration: 500 * sim.Millisecond,
		DCWarmup:   125 * sim.Millisecond,
		Seeds:      4,
		BaseSeed:   42,
		FatTreeK:   4,
		Subflows:   []int{2},
		Workers:    workers,
	}
}

// benchRegistry measures one full RunAll over the subset. Output is
// discarded; correctness (byte-identity across worker counts) is covered by
// the harness determinism tests.
func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	lab := NewLab(WithConfig(registryBenchConfig(workers)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lab.RunAll(context.Background(), registryBenchIDs, FormatText, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistrySequential(b *testing.B)  { benchRegistry(b, 1) }
func BenchmarkRegistryParallel2(b *testing.B)   { benchRegistry(b, 2) }
func BenchmarkRegistryParallel4(b *testing.B)   { benchRegistry(b, 4) }
func BenchmarkRegistryParallelMax(b *testing.B) { benchRegistry(b, 0) }

// --- Library micro-benchmarks ---

// BenchmarkSimulateTwoPath measures the end-to-end cost of the public
// Lab.Simulate API on a 10-second two-path scenario. The seed is fixed so
// every iteration runs the identical trajectory: allocs/op is then exact
// at any iteration count (a per-iteration seed made the mean drift with
// b.N).
func BenchmarkSimulateTwoPath(b *testing.B) {
	b.ReportAllocs()
	lab := NewLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := lab.Simulate(context.Background(), Scenario{
			Algorithm:   "olia",
			Paths:       []Path{{RateMbps: 10, BackgroundTCP: 3}, {RateMbps: 10, BackgroundTCP: 3}},
			DurationSec: 10,
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTwoPath measures the analytic fixed-point evaluation.
func BenchmarkAnalyzeTwoPath(b *testing.B) {
	b.ReportAllocs()
	lab := NewLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Analyze([]float64{0.01, 0.02}, []float64{0.1, 0.15}); err != nil {
			b.Fatal(err)
		}
	}
}
