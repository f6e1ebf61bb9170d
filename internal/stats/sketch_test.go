package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSketchRelativeError(t *testing.T) {
	s := NewSketch(DefaultQuantileError)
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = math.Exp(6 * rng.Float64()) // log-uniform over ~[1, 400]
		s.Add(xs[i])
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		want := Percentile(xs, q*100)
		if math.Abs(got-want)/want > 3*DefaultQuantileError {
			t.Errorf("q=%g: sketch %g vs exact %g, beyond relative error bound", q, got, want)
		}
	}
}

func TestSketchZerosAndEdges(t *testing.T) {
	s := NewSketch(DefaultQuantileError)
	if s.Quantile(0.5) != 0 {
		t.Errorf("empty sketch quantile = %g, want 0", s.Quantile(0.5))
	}
	s.Add(0)
	s.Add(-4) // clamps to the zero bucket
	s.Add(math.NaN())
	s.Add(10)
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
	if got := s.Quantile(0.25); got != 0 {
		t.Errorf("quantile in the zero mass = %g, want 0", got)
	}
	got := s.Quantile(1)
	if math.Abs(got-10)/10 > DefaultQuantileError {
		t.Errorf("max quantile %g not within α of 10", got)
	}
}

func TestSketchDeterministic(t *testing.T) {
	build := func() *Sketch {
		s := NewSketch(DefaultQuantileError)
		for i := 1; i <= 1000; i++ {
			s.Add(float64(i) * 0.37)
		}
		return s
	}
	a, b := build(), build()
	for q := 0.0; q <= 1; q += 0.05 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%g: two identical folds disagree: %g vs %g", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestNewSketchRejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSketch(%g) did not panic", alpha)
				}
			}()
			NewSketch(alpha)
		}()
	}
}
