package campaign

import (
	"fmt"
	"math"
	"math/rand"
)

// DistKind names a scalar parameter distribution.
type DistKind string

const (
	// DistConst always yields Value.
	DistConst DistKind = "const"
	// DistUniform draws uniformly from [Min, Max].
	DistUniform DistKind = "uniform"
	// DistLogUniform draws log-uniformly from [Min, Max] (Min > 0): each
	// decade of the range is equally likely — the natural shape for rates
	// spanning orders of magnitude.
	DistLogUniform DistKind = "loguniform"
	// DistChoice draws uniformly from the Choices list.
	DistChoice DistKind = "choice"
)

// Dist is one declarative scalar distribution of the sampling DSL. The
// zero value is the constant 0, so optional parameters (loss, flow size)
// can simply be omitted from a spec.
type Dist struct {
	Kind DistKind `json:"kind,omitempty"`
	// Value is the constant, for DistConst.
	Value float64 `json:"value,omitempty"`
	// Min and Max bound DistUniform and DistLogUniform draws (inclusive).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Choices lists the DistChoice support.
	Choices []float64 `json:"choices,omitempty"`
}

// Const returns the distribution that always yields v.
func Const(v float64) Dist { return Dist{Kind: DistConst, Value: v} }

// Uniform returns the uniform distribution over [lo, hi].
func Uniform(lo, hi float64) Dist { return Dist{Kind: DistUniform, Min: lo, Max: hi} }

// LogUniform returns the log-uniform distribution over [lo, hi], lo > 0.
func LogUniform(lo, hi float64) Dist { return Dist{Kind: DistLogUniform, Min: lo, Max: hi} }

// Choice returns the uniform discrete distribution over vs.
func Choice(vs ...float64) Dist { return Dist{Kind: DistChoice, Choices: vs} }

// zero reports whether d is the omitted zero value (the constant 0).
func (d Dist) zero() bool {
	return d.Kind == "" && d.Value == 0 && d.Min == 0 && d.Max == 0 && len(d.Choices) == 0
}

// validate checks the distribution's shape and that its entire support lies
// within [lo, hi] (NaN does not); field names the parameter in errors.
func (d Dist) validate(field string, lo, hi float64) error {
	bounds := func(v float64) error {
		if !(lo <= v && v <= hi) {
			return fmt.Errorf("campaign: %s value %g outside [%g, %g]", field, v, lo, hi)
		}
		return nil
	}
	switch d.Kind {
	case "", DistConst:
		if d.Kind == "" && !d.zero() {
			return fmt.Errorf("campaign: %s has distribution parameters but no kind (want one of const, uniform, loguniform, choice)", field)
		}
		return bounds(d.Value)
	case DistUniform:
		if d.Min > d.Max {
			return fmt.Errorf("campaign: %s uniform range [%g, %g] is inverted", field, d.Min, d.Max)
		}
		if err := bounds(d.Min); err != nil {
			return err
		}
		return bounds(d.Max)
	case DistLogUniform:
		if d.Min <= 0 {
			return fmt.Errorf("campaign: %s log-uniform lower bound %g must be positive", field, d.Min)
		}
		if d.Min > d.Max {
			return fmt.Errorf("campaign: %s log-uniform range [%g, %g] is inverted", field, d.Min, d.Max)
		}
		if err := bounds(d.Min); err != nil {
			return err
		}
		return bounds(d.Max)
	case DistChoice:
		if len(d.Choices) == 0 {
			return fmt.Errorf("campaign: %s choice distribution has no choices", field)
		}
		for _, v := range d.Choices {
			if err := bounds(v); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("campaign: %s has unknown distribution kind %q", field, d.Kind)
	}
}

// sample draws one value. Every non-constant kind consumes exactly one RNG
// draw, so the per-scenario draw sequence is a fixed function of the spec's
// shape — the replayability contract of the sampler. The receiver is a
// pointer so that a draw does not copy the distribution.
func (d *Dist) sample(rng *rand.Rand) float64 {
	switch d.Kind {
	case "", DistConst:
		return d.Value
	case DistUniform:
		return d.Min + (d.Max-d.Min)*rng.Float64()
	case DistLogUniform:
		return d.Min * math.Exp(math.Log(d.Max/d.Min)*rng.Float64())
	case DistChoice:
		return d.Choices[rng.Intn(len(d.Choices))]
	default:
		// Unreachable after validation.
		panic(fmt.Sprintf("campaign: sample of invalid distribution kind %q", d.Kind))
	}
}

// IntRange is the uniform integer distribution over [Min, Max], inclusive.
// The zero value yields 0.
type IntRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// validate checks the range lies within [lo, hi].
func (r IntRange) validate(field string, lo, hi int) error {
	if r.Min > r.Max {
		return fmt.Errorf("campaign: %s range [%d, %d] is inverted", field, r.Min, r.Max)
	}
	if r.Min < lo || r.Max > hi {
		return fmt.Errorf("campaign: %s range [%d, %d] outside [%d, %d]", field, r.Min, r.Max, lo, hi)
	}
	return nil
}

// validateSet checks an optional range: the zero range, which draws
// nothing, or a range within [lo, hi].
func (r IntRange) validateSet(field string, lo, hi int) error {
	if r == (IntRange{}) {
		return nil
	}
	return r.validate(field, lo, hi)
}

// sample draws one integer; a degenerate range (Min == Max) is draw-free,
// mirroring DistConst.
func (r IntRange) sample(rng *rand.Rand) int {
	if r.Min == r.Max {
		return r.Min
	}
	return r.Min + rng.Intn(r.Max-r.Min+1)
}

// choose draws one string uniformly from vs; a single-element (or empty)
// list is draw-free.
func choose(rng *rand.Rand, vs []string) string {
	switch len(vs) {
	case 0:
		return ""
	case 1:
		return vs[0]
	default:
		return vs[rng.Intn(len(vs))]
	}
}
