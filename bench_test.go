// Library micro-benchmarks for the two cheapest public entry points. They
// are developer tools, gated by nothing; the repository's benchmark — the
// paper's tables (paper_tables, with a Lab.Collect.<id> probe per
// experiment), the kernel and the per-layer rigs — is bench/.
package mptcpsim

import (
	"context"
	"testing"
)

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
