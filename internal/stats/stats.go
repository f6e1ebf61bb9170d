// Package stats provides the measurement utilities the experiment harness
// reports with: streaming summaries with confidence intervals (the paper
// reports 95% CIs on every testbed point), time-binned rate series,
// histograms for completion-time PDFs (Fig. 14), and rank curves
// (Fig. 13(b)).
package stats

import (
	"math"
	"sort"
)

// Summary accumulates moments of a sample stream (Welford's algorithm).
// The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add ingests one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the number of observations.
func (s *Summary) N() int { return s.n }

// Mean reports the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var reports the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stdev reports the sample standard deviation.
func (s *Summary) Stdev() float64 { return math.Sqrt(s.Var()) }

// Min and Max report the extremes (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }
func (s *Summary) Max() float64 { return s.max }

// CI95 reports the half-width of the 95% confidence interval for the mean
// using the normal approximation (1.96·σ/√n), as the paper does.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Stdev() / math.Sqrt(float64(s.n))
}

// Histogram bins observations into fixed-width buckets over [lo, hi);
// out-of-range observations clamp into the edge buckets.
type Histogram struct {
	lo, hi float64
	counts []int
	n      int
}

// NewHistogram builds a histogram with the given bounds and bucket count.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if hi <= lo || buckets < 1 {
		panic("stats: bad histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int, buckets)}
}

// Add ingests one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// BucketWidth reports the width of each bucket.
func (h *Histogram) BucketWidth() float64 { return (h.hi - h.lo) / float64(len(h.counts)) }

// PDF returns the estimated probability density per bucket: count/(n·width).
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.n == 0 {
		return out
	}
	w := h.BucketWidth()
	for i, c := range h.counts {
		out[i] = float64(c) / (float64(h.n) * w)
	}
	return out
}

// Rank returns xs sorted ascending — the paper's Fig. 13(b) "rank of flows"
// presentation. The input is not modified.
func Rank(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// Percentile returns the p-th percentile (0..100) by linear interpolation of
// the sorted sample. An empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := Rank(xs)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Mbps converts a byte count over a duration in seconds to megabits/second.
func Mbps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) * 8 / seconds / 1e6
}

// MSSBytes is the segment size the paper's rate conversions assume
// (1500-byte packets, §III and Appendix B).
const MSSBytes = 1500

// PktsPerSecMbps converts a packet rate at MSS-sized segments to
// megabits/second — the conversion between the analytic fixed points
// (packets per second) and the reported throughputs.
func PktsPerSecMbps(pktsPerSec float64) float64 {
	return pktsPerSec * MSSBytes * 8 / 1e6
}
