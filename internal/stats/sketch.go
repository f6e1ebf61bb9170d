package stats

import (
	"fmt"
	"math"
)

// Sketch is a deterministic streaming quantile sketch over non-negative
// observations: a geometric (log-bucketed) histogram in the style of
// DDSketch. Values map to the bucket ⌈log_γ(x)⌉ with γ = (1+α)/(1−α), so
// every quantile estimate carries at most α relative error, memory is
// bounded by the dynamic range of the stream (one counter per bucket
// between the lowest and highest occupied — O(1) in the stream length, and
// 36 k counters at α = 1 % for the whole float64 range), and, unlike
// sampling-based sketches, the result is a pure function of the multiset of
// observations: Add is draw-free integer counting and Quantile reads
// buckets in index order — no randomness, no wall clock — so two campaigns
// folding the same samples agree bit for bit, the property the campaign
// digest rests on.
//
// The buckets are a dense slice offset by the lowest index it covers, so
// Add is an index and an increment and Quantile a scan; the map it
// replaced gives bit-identical quantiles (TestSketchMatchesMapSketch).
//
// The zero value is not usable; construct with NewSketch.
type Sketch struct {
	gamma float64 // (1+α)/(1−α)
	lgG   float64 // log(γ)
	// counts[k] counts bucket lo+k. Buckets below the lowest observation
	// may be covered too, empty: the slice grows downward in doublings.
	counts []int64
	lo     int
	zeros  int64 // observations below sketchMin (including exact zeros)
	total  int64
}

// sketchMin is the smallest magnitude resolved by the sketch; observations
// in [0, sketchMin) land in the zero bucket and report as 0. Campaign
// metrics (Mb/s, seconds, counts) are far above it whenever they are
// meaningfully non-zero.
const sketchMin = 1e-9

// DefaultQuantileError is the relative-error guarantee campaigns use.
const DefaultQuantileError = 0.01

// NewSketch builds a sketch with the given relative-error guarantee α in
// (0, 1); DefaultQuantileError is the conventional choice.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: quantile sketch error %g outside (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		gamma: gamma,
		lgG:   math.Log(gamma),
	}
}

// Add ingests one observation. Negative values clamp to zero (campaign
// metrics are non-negative by construction; a tiny negative float from
// upstream arithmetic must not poison the bucket index).
func (s *Sketch) Add(x float64) {
	s.total++
	if x < sketchMin || math.IsNaN(x) {
		s.zeros++
		return
	}
	i := s.bucket(x)
	hi := s.lo + len(s.counts) // one past the highest bucket covered
	switch {
	case len(s.counts) == 0:
		s.lo = i
		s.counts = append(s.counts, 0)
	case i < s.lo:
		// Cover at least twice the range, so a falling stream grows the
		// slice a logarithmic number of times.
		lo := min(i, s.lo-len(s.counts))
		grown := make([]int64, hi-lo)
		copy(grown[s.lo-lo:], s.counts)
		s.lo, s.counts = lo, grown
	case i >= hi:
		s.counts = append(s.counts, make([]int64, i+1-hi)...)
	}
	s.counts[i-s.lo]++
}

// bucket maps a value ≥ sketchMin to its geometric bucket index. +Inf
// counts in the bucket of the largest float64, the top of the range.
func (s *Sketch) bucket(x float64) int {
	return int(math.Ceil(math.Log(min(x, math.MaxFloat64)) / s.lgG))
}

// value is the representative of bucket i: the midpoint 2γ^i/(γ+1), within
// α relative error of every value the bucket covers.
func (s *Sketch) value(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Quantile reports the q-th quantile (q in [0, 1]) of the ingested stream:
// the representative value of the bucket holding the observation of rank
// ⌈q·n⌉, within α relative error of the true quantile. An empty sketch
// reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zeros {
		return 0
	}
	seen := s.zeros
	for k, c := range s.counts {
		seen += c
		if seen >= rank {
			return s.value(s.lo + k)
		}
	}
	// Unreachable: the bucket counts sum to total.
	return s.value(s.lo + len(s.counts) - 1)
}
