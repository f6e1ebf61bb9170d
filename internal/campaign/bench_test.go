package campaign

import (
	"context"
	"testing"

	"mptcpsim/internal/scenario"
)

// The costs of a warm hit, one benchmark each: sampling the scenario, its
// content address, decoding its record, and a whole warm Run. Each works
// through the first benchRecords scenarios of Default(), so that its
// records have the sizes, names and counters a default population's have.
//
//	go test ./internal/campaign -run '^$' -bench . -benchmem -cpu 1,2

// benchRecords is how many default-population scenarios the per-hit
// benchmarks cycle through.
const benchRecords = 64

// BenchmarkSampleInto samples the first benchRecords scenarios of
// Default() in turn into one scratch, as a job does.
func BenchmarkSampleInto(b *testing.B) {
	sp := Default().fill()
	s := new(sampled)
	i := 0
	for b.Loop() {
		sp.sampleInto(s, i%benchRecords)
		i++
	}
}

// BenchmarkCacheKey derives the content address of the first benchRecords
// scenarios of Default() in turn.
func BenchmarkCacheKey(b *testing.B) {
	sp := Default().fill()
	specs := make([]*scenario.Spec, benchRecords)
	for i := range specs {
		specs[i] = sp.SampleSpec(i)
	}
	var buf []byte
	i := 0
	for b.Loop() {
		if _, err := cacheKey(&buf, "bench", specs[i%benchRecords]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkDecodeReport decodes the reports of the first benchRecords
// scenarios of Default() in turn into one recycled report, as a hit does.
func BenchmarkDecodeReport(b *testing.B) {
	sp := Default().fill()
	encs := make([][]byte, benchRecords)
	for i := range encs {
		rep, err := scenario.Run(context.Background(), sp.SampleSpec(i))
		if err != nil {
			b.Fatal(err)
		}
		encs[i] = scenario.AppendReport(nil, rep)
	}
	rep := new(scenario.RunReport)
	i := 0
	for b.Loop() {
		if err := scenario.DecodeReportInto(rep, encs[i%benchRecords]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkWarmRun runs a 2 000-scenario Default() campaign against the
// pack its first Run filled: every scenario a hit. ns/hit is the op's
// time over its hits.
func BenchmarkWarmRun(b *testing.B) {
	sp := Default()
	sp.N = 2000
	sp.CacheDir = b.TempDir()
	opts := Options{Version: "bench"}
	if _, err := Run(context.Background(), sp, opts); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		res, err := Run(context.Background(), sp, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheHits != sp.N {
			b.Fatalf("%d of %d hits", res.CacheHits, sp.N)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sp.N), "ns/hit")
}
