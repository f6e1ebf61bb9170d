package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the streaming aggregators of the campaign engine: a
// merge law for Summary (so per-shard moments combine into campaign-wide
// moments) and Sketch, a deterministic quantile sketch with O(1) memory at
// any stream length. Both are pure float64 arithmetic — no randomness, no
// wall clock — so a fold over a deterministic sample stream is itself
// deterministic, the property the campaign digest rests on.

// Merge folds another summary into s as if every observation of o had been
// Added to s (Chan, Golub & LeVeque's pairwise update for mean and M2).
//
// The merged moments are exact in real arithmetic but are NOT bitwise
// identical to replaying o's observations through Add — floating-point
// addition is not associative. Callers that need bit-reproducible
// aggregates (the campaign engine's worker-count identity) must therefore
// fold observations one at a time in a canonical order; Merge exists for
// the approximate uses where shard-level summaries are all that is left.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n := float64(s.n + o.n)
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/n
	s.mean += d * float64(o.n) / n
	s.n += o.n
}

// Sketch is a deterministic streaming quantile sketch over non-negative
// observations: a geometric (log-bucketed) histogram in the style of
// DDSketch. Values map to the bucket ⌈log_γ(x)⌉ with γ = (1+α)/(1−α), so
// every quantile estimate carries at most α relative error, memory is
// bounded by the dynamic range of the stream (one counter per occupied
// bucket — O(1) in the stream length), and, unlike sampling-based sketches,
// the result is a pure function of the multiset of observations: Add is
// draw-free, Merge is bucket-wise integer addition (exact, commutative,
// associative), and Quantile reads buckets in sorted order. Two campaigns
// folding the same samples agree bit for bit regardless of chunking.
//
// The zero value is not usable; construct with NewSketch.
type Sketch struct {
	alpha  float64
	gamma  float64 // (1+α)/(1−α)
	lgG    float64 // log(γ)
	counts map[int]int64
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
		alpha:  alpha,
		gamma:  gamma,
		lgG:    math.Log(gamma),
		counts: make(map[int]int64),
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
	s.counts[s.bucket(x)]++
}

// bucket maps a value ≥ sketchMin to its geometric bucket index.
func (s *Sketch) bucket(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lgG))
}

// value is the representative of bucket i: the midpoint 2γ^i/(γ+1), within
// α relative error of every value the bucket covers.
func (s *Sketch) value(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// N reports the number of observations.
func (s *Sketch) N() int64 { return s.total }

// Merge folds another sketch into s: bucket-wise addition, exact and
// commutative, so the merged sketch equals the sketch of the concatenated
// streams no matter how the observations were sharded. The sketches must
// share one α.
func (s *Sketch) Merge(o *Sketch) {
	if o.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging quantile sketches with different error bounds (%g vs %g)", s.alpha, o.alpha))
	}
	s.zeros += o.zeros
	s.total += o.total
	for i, c := range o.counts {
		s.counts[i] += c
	}
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
	keys := make([]int, 0, len(s.counts))
	for i := range s.counts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	seen := s.zeros
	for _, i := range keys {
		seen += s.counts[i]
		if seen >= rank {
			return s.value(i)
		}
	}
	// Unreachable: the bucket counts sum to total.
	return s.value(keys[len(keys)-1])
}
