// The audited unit-conversion chokepoints. sim.Time is a dimensioned
// quantity, and the unitsafety analyzer bans raw conversions in and out of
// it everywhere outside this package — rate·time↔bytes arithmetic and
// float escapes for estimator math must flow through the named helpers
// below (or the constructors Seconds/Millis and the accessors Sec and
// ExactSec in sim.go), so every place a number changes dimension is reviewable here.
package sim

import "math/rand"

// Nanos is the raw float escape hatch: t as a float64 nanosecond count.
// It exists for estimator arithmetic (RTT smoothing keeps float
// nanoseconds); prefer Sec for reporting.
func (t Time) Nanos() float64 { return float64(t) }

// FromNanos builds a Time from a float64 nanosecond count, truncating
// toward zero exactly like the raw conversion it replaces.
func FromNanos(ns float64) Time { return Time(ns) }

// Scale multiplies a duration by a dimensionless count (the i-th tick of a
// gap: gap.Scale(i)).
func (t Time) Scale(n int) Time { return t * Time(n) }

// TxTime is the rate·time↔bytes chokepoint: the serialization time of
// size bytes at rateBps bits per second, in exact integer arithmetic
// (bytes × 8 × ns-per-second / bps).
func TxTime(bytes, rateBps int64) Time {
	return Time(bytes * 8 * int64(Second) / rateBps)
}

// RandBelow draws a uniform Time in [0, max) from the given seeded source:
// the jitter primitive for start-time spreading. Drawing through the
// helper keeps the RNG draw order identical to the raw
// Time(r.Int63n(int64(max))) it replaces.
func RandBelow(r *rand.Rand, max Time) Time {
	return Time(r.Int63n(int64(max)))
}
