package campaign

import (
	"encoding/json"
	"fmt"
	"strings"
)

// RenderJSON encodes the result, indented, with a trailing newline —
// byte-identical for byte-identical results, so the golden and the
// worker-count identity tests compare renderings directly.
func (r *Result) RenderJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding result: %w", err)
	}
	return append(data, '\n'), nil
}

// RenderText renders the human-readable campaign report.
func (r *Result) RenderText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s: %d scenarios (seed %d)", r.Name, r.N, r.Seed)
	if r.Version != "" {
		fmt.Fprintf(&b, ", code %s", r.Version)
	}
	fmt.Fprintf(&b, "\n  simulated %d, cache hits %d\n", r.Simulated, r.CacheHits)
	if r.Violations > 0 {
		fmt.Fprintf(&b, "  INVARIANT VIOLATIONS: %d (in %s", r.Violations, strings.Join(r.Flagged, ", "))
		if len(r.Flagged) == flaggedCap {
			b.WriteString(", …")
		}
		b.WriteString(")\n")
	}
	fmt.Fprintf(&b, "  %-22s %6s %10s %10s %10s %10s %10s %10s\n",
		"metric", "count", "mean", "stddev", "p10", "p50", "p90", "max")
	for i := range r.Aggregates {
		a := &r.Aggregates[i]
		fmt.Fprintf(&b, "  %-22s %6d %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g\n",
			a.Metric, a.Count, a.Mean, a.Stddev, a.P10, a.P50, a.P90, a.Max)
	}
	fmt.Fprintf(&b, "  digest %s\n", r.Digest())
	return b.String()
}
