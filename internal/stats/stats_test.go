package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean %v", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatal("ci")
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should be zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("single-sample summary")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestPropertySummaryMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(variance))
		return math.Abs(s.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Var()-variance) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPDFIntegratesToOne(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64() * 10)
	}
	var integral float64
	for _, d := range h.PDF() {
		integral += d * h.BucketWidth()
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("PDF integral %v", integral)
	}
	if h.n != 1000 {
		t.Fatalf("N %d", h.n)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	pdf := h.PDF()
	if pdf[0] == 0 || pdf[9] == 0 {
		t.Fatal("out-of-range values must clamp to edge buckets")
	}
	if c0, c9 := h.lo+0.5*h.BucketWidth(), h.lo+9.5*h.BucketWidth(); c0 != 0.5 || c9 != 9.5 {
		t.Fatalf("centers %v %v", c0, c9)
	}
}

func TestHistogramEmptyPDF(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, d := range h.PDF() {
		if d != 0 {
			t.Fatal("empty histogram PDF should be zero")
		}
	}
}

func TestHistogramBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestRankSortsWithoutMutating(t *testing.T) {
	in := []float64{3, 1, 2}
	out := Rank(in)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("rank %v", out)
	}
	if in[0] != 3 {
		t.Fatal("input mutated")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestMbps(t *testing.T) {
	if got := Mbps(1_250_000, 1); got != 10 {
		t.Fatalf("Mbps %v", got)
	}
	if Mbps(100, 0) != 0 {
		t.Fatal("zero-duration must not divide")
	}
}

func TestPktsPerSecMbps(t *testing.T) {
	// 100 MSS-sized packets/s = 100 · 1500 · 8 bits/s = 1.2 Mb/s.
	if got := PktsPerSecMbps(100); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("PktsPerSecMbps(100) = %v, want 1.2", got)
	}
	if PktsPerSecMbps(0) != 0 {
		t.Fatal("zero rate")
	}
}
