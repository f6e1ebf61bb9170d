// Package campaign is the population-scale Monte Carlo engine: it samples
// thousands of scenario.Specs from a declarative parameter-distribution
// DSL, fans them out on the runner pool, and folds every RunReport through
// streaming aggregators (count, Welford mean/variance, a deterministic
// quantile sketch) so memory stays O(1) at any campaign size. Completed
// runs are keyed in a content-addressed on-disk cache — spec digest + seed
// + code version — so re-running a campaign is incremental and a fully
// cached re-run performs zero simulations.
//
// Determinism contract: scenario i of a campaign is a pure function of
// (Spec, i) — the sampler seeds a private RNG from the campaign seed and
// the index alone, exactly like scenario.GenSpec — and the aggregate is a
// fold over reports in index order. Workers only compute per-index
// samples; the fold itself is sequential, so the campaign Result (and its
// Digest) is byte-identical at any worker count, warm cache or cold.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
)

// FaultSpec scales the per-scenario fault timeline the sampler generates.
// The zero value injects no faults.
type FaultSpec struct {
	// Events is the number of timeline events drawn per scenario.
	Events IntRange `json:"events"`
	// Rate, Blackhole and Flap enable the event kinds the sampler draws
	// from: mid-run rate setpoints (redrawn from LinkRateMbps), full loss
	// blackholes with a later recovery, and path down/up flaps. At least
	// one kind must be enabled when Events can be positive.
	Rate      bool `json:"rate,omitempty"`
	Blackhole bool `json:"blackhole,omitempty"`
	Flap      bool `json:"flap,omitempty"`
}

// kinds lists the enabled event kinds in declaration order.
func (f FaultSpec) kinds() []string {
	var out []string
	if f.Rate {
		out = append(out, "rate")
	}
	if f.Blackhole {
		out = append(out, "blackhole")
	}
	if f.Flap {
		out = append(out, "flap")
	}
	return out
}

// Spec declares a campaign: a population of network conditions as
// parameter distributions, plus the campaign size and seed. Sampled
// scenario i is one "user": a multipath flow over Paths disjoint
// bottleneck links (each drawn from the link distributions), competing
// with Background single-path TCP flows per path, optionally under a
// drawn fault timeline.
type Spec struct {
	// Name labels the campaign in reports and job listings.
	Name string `json:"name,omitempty"`
	// N is the number of scenarios to sample and run (default 200).
	N int `json:"n,omitempty"`
	// Seed anchors the deterministic sampler chain (default 1): scenario i
	// is built from an RNG seeded by Seed and i alone, so any index
	// replays in isolation.
	Seed int64 `json:"seed,omitempty"`

	// WarmupSec and DurationSec draw each scenario's measurement window:
	// metrics cover [warmup, warmup+duration].
	WarmupSec   Dist `json:"warmup_sec,omitempty"`
	DurationSec Dist `json:"duration_sec"`

	// Paths draws the user's interface count — each path gets its own
	// bottleneck link drawn from the link distributions below.
	Paths IntRange `json:"paths"`
	// LinkRateMbps, LinkDelayMs and LinkLossPct draw each bottleneck's
	// line rate (Mb/s, required positive), one-way access delay (ms), and
	// i.i.d. non-congestive loss (percent, support within [0, 100)).
	LinkRateMbps Dist `json:"link_rate_mbps"`
	LinkDelayMs  Dist `json:"link_delay_ms,omitempty"`
	LinkLossPct  Dist `json:"link_loss_pct,omitempty"`
	// Queues lists the queue disciplines drawn per link ("red",
	// "droptail"); empty keeps every bottleneck RED, the paper's testbed.
	Queues []string `json:"queues,omitempty"`

	// Algorithms lists the multipath congestion controllers drawn per
	// scenario (required non-empty; see mptcpsim.Algorithms).
	Algorithms []string `json:"algorithms"`
	// FlowBytes draws the user's transfer size; a draw of 0 (the default)
	// means a long-lived flow. Positive draws are clamped to at least one
	// segment per subflow.
	FlowBytes Dist `json:"flow_bytes,omitempty"`
	// Schedulers lists the subflow schedulers drawn for finite transfers
	// (see mptcpsim.Schedulers); empty keeps the legacy per-subflow split.
	// Ignored for long-lived draws.
	Schedulers []string `json:"schedulers,omitempty"`
	// Background draws the number of competing single-path TCP flows per
	// path.
	Background IntRange `json:"background"`
	// StartJitter randomizes every flow's start within [0, 1 s), the
	// testbed's randomized Iperf start order.
	StartJitter bool `json:"start_jitter,omitempty"`

	// Faults scales the per-scenario fault timeline; the zero value
	// injects none.
	Faults FaultSpec `json:"faults,omitempty"`

	// CacheDir, when non-empty, holds the content-addressed result cache.
	// It is operator configuration, not part of the submitted campaign:
	// the serve layer sets it from its own flags (never from request
	// bodies), and it does not participate in cache keys or digests.
	CacheDir string `json:"-"`
}

// Default returns the reference population: dual-homed (occasionally
// single- or triple-homed) users over log-uniform 1-16 Mb/s bottlenecks
// with 5-60 ms access delays and a light tail of random loss — the shape
// of the Dual-LTE-in-the-wild measurement mixes — competing with 0-2
// background TCP flows per path under OLIA or LIA, with a sprinkle of
// mid-run faults. Decode starts from this spec and lets `mptcpsim campaign`
// and serve callers override any field.
func Default() *Spec {
	return &Spec{
		Name:         "dual-lte",
		N:            200,
		Seed:         1,
		WarmupSec:    Const(0.5),
		DurationSec:  Uniform(2, 4),
		Paths:        IntRange{Min: 1, Max: 3},
		LinkRateMbps: LogUniform(1, 16),
		LinkDelayMs:  Uniform(5, 60),
		LinkLossPct:  Choice(0, 0, 0, 0.2, 1),
		Queues:       []string{string(scenario.QueueRED), string(scenario.QueueDropTail)},
		Algorithms:   []string{"olia", "lia"},
		Background:   IntRange{Min: 0, Max: 2},
		StartJitter:  true,
		Faults:       FaultSpec{Events: IntRange{Min: 0, Max: 2}, Rate: true, Blackhole: true, Flap: true},
	}
}

// Decode reads one campaign spec from outside bytes — the CLI's -spec file,
// a serve request body — and is the only place that does: the JSON object
// overlays Default(), so `{}` is the reference population; unknown fields
// and anything but white space after the object are rejected; and the
// result is validated.
func Decode(r io.Reader) (*Spec, error) {
	sp := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(sp); err != nil {
		return nil, fmt.Errorf("decoding campaign spec: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("decoding campaign spec: data after the JSON value")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// fill normalizes the omitted counters to their documented defaults.
func (sp *Spec) fill() *Spec {
	out := *sp
	if out.N == 0 {
		out.N = 200
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Name == "" {
		out.Name = "campaign"
	}
	return &out
}

// Validate checks the campaign declaration: every distribution well-formed
// with its support inside the domain the scenario DSL accepts, known
// algorithm, scheduler and queue names, and a satisfiable fault spec. It
// returns the first problem found, so a rejected HTTP submission carries
// one actionable message.
func (sp *Spec) Validate() error {
	if sp.N < 0 {
		return fmt.Errorf("campaign %q: negative scenario count %d", sp.Name, sp.N)
	}
	if err := sp.WarmupSec.validate("warmup_sec", 0, 60); err != nil {
		return err
	}
	if sp.DurationSec.zero() {
		return fmt.Errorf("campaign %q: duration_sec distribution is required", sp.Name)
	}
	if err := sp.DurationSec.validate("duration_sec", 1e-3, 600); err != nil {
		return err
	}
	if err := sp.Paths.validate("paths", 1, 8); err != nil {
		return err
	}
	if sp.LinkRateMbps.zero() {
		return fmt.Errorf("campaign %q: link_rate_mbps distribution is required", sp.Name)
	}
	if err := sp.LinkRateMbps.validate("link_rate_mbps", 1e-3, 1e5); err != nil {
		return err
	}
	if err := sp.LinkDelayMs.validate("link_delay_ms", 0, 1e4); err != nil {
		return err
	}
	// Loss stays strictly below 100: a permanently black-holed link is a
	// fault-timeline event, not a population parameter.
	if err := sp.LinkLossPct.validate("link_loss_pct", 0, 99.99); err != nil {
		return err
	}
	for _, q := range sp.Queues {
		switch scenario.QueueKind(q) {
		case scenario.QueueRED, scenario.QueueDropTail:
		default:
			return fmt.Errorf("campaign %q: unknown queue kind %q", sp.Name, q)
		}
	}
	if len(sp.Algorithms) == 0 {
		return fmt.Errorf("campaign %q: algorithms list is required", sp.Name)
	}
	for _, a := range sp.Algorithms {
		if !core.Known(a) {
			return fmt.Errorf("campaign %q: unknown algorithm %q", sp.Name, a)
		}
	}
	if err := sp.FlowBytes.validate("flow_bytes", 0, 1e12); err != nil {
		return err
	}
	for _, s := range sp.Schedulers {
		if _, err := mptcp.NewScheduler(s); err != nil {
			return fmt.Errorf("campaign %q: %w", sp.Name, err)
		}
	}
	if len(sp.Schedulers) > 0 && sp.FlowBytes.zero() {
		return fmt.Errorf("campaign %q: schedulers need a flow_bytes distribution (schedulers apply to finite transfers)", sp.Name)
	}
	if err := sp.Background.validate("background", 0, 16); err != nil {
		return err
	}
	if err := sp.Faults.Events.validate("faults.events", 0, 32); err != nil {
		return err
	}
	if sp.Faults.Events.Max > 0 && len(sp.Faults.kinds()) == 0 {
		return fmt.Errorf("campaign %q: faults.events can draw %d events but no event kind is enabled", sp.Name, sp.Faults.Events.Max)
	}
	return nil
}
