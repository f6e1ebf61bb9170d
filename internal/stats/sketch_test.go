package stats

import (
	"math"
	"math/rand"
	"sort"
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
	if s.total != 4 {
		t.Fatalf("N = %d, want 4", s.total)
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

// mapSketch is the map-keyed sketch the dense one replaced, kept as the
// reference its quantiles must match bit for bit.
type mapSketch struct {
	gamma, lgG   float64
	counts       map[int]int64
	zeros, total int64
}

func newMapSketch(alpha float64) *mapSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &mapSketch{gamma: gamma, lgG: math.Log(gamma), counts: map[int]int64{}}
}

func (s *mapSketch) Add(x float64) {
	s.total++
	if x < sketchMin || math.IsNaN(x) {
		s.zeros++
		return
	}
	s.counts[int(math.Ceil(math.Log(x)/s.lgG))]++
}

func (s *mapSketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	q = max(0, min(q, 1))
	rank := max(int64(math.Ceil(q*float64(s.total))), 1)
	if rank <= s.zeros {
		return 0
	}
	keys := make([]int, 0, len(s.counts))
	for i := range s.counts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	seen := s.zeros
	for _, i := range keys {
		seen += s.counts[i]
		if seen >= rank {
			return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
		}
	}
	panic("bucket counts do not sum to the total")
}

// TestSketchMatchesMapSketch: over random streams — exact zeros, NaN,
// negatives, sketchMin and its neighbours, 1e300, streams in one bucket,
// streams across the whole range, falling streams and all of them mixed —
// the dense sketch reports the map sketch's N and, at every probed
// quantile, its bits. (+Inf is left out: the map sketch filed it under
// int(+Inf), whose value Go leaves to the platform; the dense one counts it
// in the top bucket.)
func TestSketchMatchesMapSketch(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), -1, -1e300, math.Inf(-1),
		sketchMin, math.Nextafter(sketchMin, 0), math.Nextafter(sketchMin, 1), 1e300, math.MaxFloat64}
	rng := rand.New(rand.NewSource(31))
	metric := func() float64 { return math.Exp(8 * rng.Float64()) }
	kinds := []func() float64{
		func() float64 { return special[rng.Intn(len(special))] },
		func() float64 { return 7.25 },                            // one value
		func() float64 { return 7.25 * (1 + 1e-3*rng.Float64()) }, // one bucket
		metric,
		func() float64 { return math.Exp(math.Log(1e-12) + (math.Log(1e300)-math.Log(1e-12))*rng.Float64()) },
		func() float64 { return 2 * sketchMin * rng.Float64() },
		func() float64 { return -rng.Float64() },
	}
	stream := func(draw func() float64) []float64 {
		xs := make([]float64, rng.Intn(500))
		for i := range xs {
			xs[i] = draw()
		}
		return xs
	}
	var streams [][]float64
	for trial := 0; trial < 20; trial++ {
		for _, draw := range kinds {
			streams = append(streams, stream(draw))
		}
		falling := stream(metric)
		sort.Sort(sort.Reverse(sort.Float64Slice(falling)))
		mixed := stream(func() float64 { return kinds[rng.Intn(len(kinds))]() })
		streams = append(streams, falling, mixed)
	}
	for k, xs := range streams {
		dense, ref := NewSketch(DefaultQuantileError), newMapSketch(DefaultQuantileError)
		for _, x := range xs {
			dense.Add(x)
			ref.Add(x)
		}
		if dense.total != ref.total {
			t.Fatalf("stream %d: N = %d, map sketch %d", k, dense.total, ref.total)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if got, want := dense.Quantile(q), ref.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stream %d: q=%g: %g (%016x), map sketch %g (%016x)", k, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
