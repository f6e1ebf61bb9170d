// Package scenario is a typed, declarative description of arbitrary N-path
// simulation topologies, compiled into runnable packet-level simulations.
//
// A Spec names links (rate, propagation delay, random loss, queue
// discipline), paths (link sequences plus a per-flow access delay, and the
// links their ACKs return over where not the shared return link), and
// flows (congestion-control algorithm, path set, replica count, start/stop
// times, workload size). Compile turns one into a Net: the paper's testbed
// topologies (paper.go) and its data-center fabric (fattree.go) are Spec
// builders that the figure experiments compile, the campaign sampler
// draws topologies far outside the ~15 hardcoded paper figures (the fuzzer
// runs one such population), and Fluid (fluid.go) compiles the same Spec to
// the paper's §V fluid model, which the harness's conformance table
// cross-checks packet-level steady states against.
//
// Net (compile.go) is the one way a flow is wired and the one way a
// network is run, and Compile is its one front end: every network in the
// repository is a Spec, the paper's data-center fabric (fattree.go)
// included. Net.Run (run.go) measures the network over its window under
// the invariant checks and stops at a one-second boundary when cancelled.
package scenario

import (
	"fmt"
	"math"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// QueueKind names a link's buffering discipline.
type QueueKind string

const (
	// QueueRED is the paper's testbed RED configuration (the default).
	QueueRED QueueKind = "red"
	// QueueDropTail is a fixed-size FIFO (htsim's data-center default).
	QueueDropTail QueueKind = "droptail"
)

// LinkSpec describes one unidirectional congestible link: a rate-limited
// queue followed by a propagation pipe, optionally preceded by a random
// loss element.
type LinkSpec struct {
	// RateMbps is the line rate in Mb/s. Required, > 0.
	RateMbps float64 `json:"rate_mbps"`
	// DelayMs is the link's own one-way propagation delay. Paths add their
	// per-flow access delay on top (see PathSpec.DelayMs).
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Queue selects the discipline; empty means RED.
	Queue QueueKind `json:"queue,omitempty"`
	// BufferPkts overrides the buffer size in packets: the drop-tail limit
	// (default 100), or the RED hard limit with thresholds kept at the
	// paper's rate-scaled values. 0 keeps the defaults.
	BufferPkts int `json:"buffer_pkts,omitempty"`
	// LossPct is an i.i.d. random drop percentage applied before the queue
	// (non-congestive loss). 0 disables.
	LossPct float64 `json:"loss_pct,omitempty"`
}

// PathSpec is one route flows can use: an ordered sequence of links, with an
// access delay in front carrying the path's propagation delay — the
// structure of the paper's testbed, where bottleneck queues have zero delay
// and each user's access path carries the 40 ms one-way latency.
type PathSpec struct {
	// Links indexes Spec.Links in traversal order. Required, non-empty.
	Links []int `json:"links"`
	// DelayMs is the one-way access delay in front of the first link. Its
	// pipe is the network's one pipe of that delay, shared by every hop of
	// equal constant delay (SetDelay is only for a pipe that carries one
	// link). Zero elides the access pipe entirely (flows enter the first
	// link's queue directly): even a 0 ms pipe reserves kernel sequence
	// numbers and defers each packet by one event, and a network whose
	// delay lives on the links themselves (the fat tree) has no such hop.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Rev indexes Spec.Links in the order ACKs cross them back to the
	// sender, as the fat tree's mirror routes do. Absent, ACKs take the
	// shared uncongested return link (ReverseRateMbps, ReverseDelayMs);
	// present, it must not be empty.
	Rev []int `json:"rev,omitempty"`
}

// AlgoTCP is the FlowSpec.Algorithm value for a plain single-path TCP
// (Reno) flow with no multipath coupling.
const AlgoTCP = "tcp"

// FlowSpec describes one group of identical flows.
type FlowSpec struct {
	// Name labels the group in reports ("type1", "bg0", ...).
	Name string `json:"name,omitempty"`
	// Algorithm is a coupled controller name ("olia", "lia", "uncoupled",
	// "fullycoupled") or AlgoTCP for a plain single-path TCP flow.
	Algorithm string `json:"algorithm"`
	// Paths indexes Spec.Paths: the subflow routes of a multipath flow, or
	// exactly one path for AlgoTCP.
	Paths []int `json:"paths"`
	// Count replicates the flow; 0 means 1.
	Count int `json:"count,omitempty"`
	// StartSec is the earliest start time; with StartJitter set, a
	// uniformly random offset in [0, 1 s) is added per replica — the
	// paper's randomized Iperf start order.
	StartSec    float64 `json:"start_sec,omitempty"`
	StartJitter bool    `json:"start_jitter,omitempty"`
	// StopSec pauses the flow's senders at this time (0 = never). Paused
	// flows stop injecting new segments; in-flight data drains normally.
	StopSec float64 `json:"stop_sec,omitempty"`
	// FlowBytes bounds the transfer; 0 means long-lived (unbounded).
	FlowBytes int64 `json:"flow_bytes,omitempty"`
	// Scheduler selects the subflow scheduling policy for a finite multipath
	// transfer (see mptcp.Schedulers: "pull", "minrtt", "roundrobin", "ecf",
	// "redundant"). Empty keeps the legacy per-subflow split of FlowBytes
	// with no connection-level reassembly. Requires a multipath Algorithm
	// and FlowBytes > 0.
	Scheduler string `json:"scheduler,omitempty"`
	// ChunkBytes is the scheduling granularity for Scheduler flows; 0 means
	// mptcp.DefaultChunk. Only valid with Scheduler set.
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	// KeepSlowStart preserves normal slow start on multipath subflows
	// instead of the paper's §IV-B ssthresh=1 setting.
	KeepSlowStart bool `json:"keep_slow_start,omitempty"`
	// MaxCwndPkts caps every sender's congestion window, modelling a small
	// advertised receive window; 0 means unlimited.
	MaxCwndPkts float64 `json:"max_cwnd_pkts,omitempty"`
	// NoIncreaseCap lifts the per-ACK cap that keeps a coupled controller
	// from growing a window faster than Reno (RFC 6356 goal 2). Multipath
	// flows only: the cap exists on the coupled hook alone.
	NoIncreaseCap bool `json:"no_increase_cap,omitempty"`
	// Serial starts the replicas one after another instead of together:
	// replica 0 at StartSec, each later one when the one before it
	// completes. Requires FlowBytes and a completion to wait for (plain TCP
	// or a Scheduler), and rules out StartJitter, StopSec and ProbeControl.
	Serial bool `json:"serial,omitempty"`
	// DelayedAck turns on RFC 1122 delayed ACKs (at most every second
	// segment, held at most 40 ms) at every receiver of the group.
	DelayedAck bool `json:"delayed_ack,omitempty"`
	// ProbeControl suspends a subflow whose window sits at the floor and
	// re-probes it later (the paper's §VII bad-path suspension; see
	// mptcp.Conn.EnableProbeControl). Multipath flows only.
	ProbeControl bool `json:"probe_control,omitempty"`
}

// TraceSpec samples named quantities of the running network at a fixed
// period; the series land in RunReport.Trace.
type TraceSpec struct {
	// PeriodMs is the sampling period: samples are taken at 0, PeriodMs,
	// 2·PeriodMs, … up to the end of the run.
	PeriodMs float64 `json:"period_ms"`
	// Probes lists what is sampled, in column order, each written
	// "<kind> <group> <replica> <path>": kind is cwnd (the congestion
	// window, packets), srtt (the smoothed RTT, seconds), alpha or ell
	// (OLIA's α and ℓ in bytes, OLIA flows only); group is the Name of a
	// Flows entry, replica one of its Count copies and path an index into
	// its Paths.
	Probes []string `json:"probes"`
}

// Spec is a complete scenario: topology plus workload plus run window.
type Spec struct {
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Seed drives every random choice (start jitter, RED, random loss).
	Seed int64 `json:"seed"`
	// WarmupSec and DurationSec bound the measured window: metrics cover
	// [Warmup, Warmup+Duration].
	WarmupSec   float64 `json:"warmup_sec"`
	DurationSec float64 `json:"duration_sec"`

	Links []LinkSpec `json:"links"`
	Paths []PathSpec `json:"paths"`
	Flows []FlowSpec `json:"flows"`

	// Timeline lists timestamped mid-run mutations — link shaping
	// setpoints and path flaps — in non-decreasing time order (see
	// timeline.go). Empty means a static network.
	Timeline []TimelineEvent `json:"timeline,omitempty"`

	// ReverseRateMbps and ReverseDelayMs shape the shared uncongested
	// return (ACK) link of every path without a Rev; zero selects the
	// testbed values (1000 Mb/s, 40 ms).
	ReverseRateMbps float64 `json:"reverse_rate_mbps,omitempty"`
	ReverseDelayMs  float64 `json:"reverse_delay_ms,omitempty"`

	// Trace, when set, samples the probes it lists while the run advances.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// reverse-path defaults: the testbed's return direction is uncongested.
const (
	defaultReverseRateMbps = 1000
	defaultReverseDelayMs  = 40
)

// startSpread is the window over which jittered flow starts randomize
// (the paper initiates its Iperf sessions in random order).
const startSpread = sim.Second

// Validate's bounds on magnitudes. netem takes a rate as whole bits per
// second in an int64 and the kernel a time as int64 nanoseconds; outside
// these bounds a conversion truncates to zero or overflows to a negative
// value, which netem and the kernel reject by panicking. MaxSpecSec bounds
// a run's warmup plus duration, and every time inside it.
const (
	minRateMbps = 1e-6 // 1 b/s
	maxRateMbps = 1e9  // 1 Pb/s
	MaxSpecSec  = 1e6  // about 11.6 days of virtual time
	maxDelayMs  = MaxSpecSec * 1e3
)

// maxPathLinks bounds a path's length. A packet holds its place on the
// route as a uint16 (netem.Packet), and a route has up to three hops a
// link: this leaves room to spare.
const maxPathLinks = 1024

// rateInRange reports whether a rate in Mb/s lies within Validate's bounds
// (NaN does not).
func rateInRange(mbps float64) bool { return mbps >= minRateMbps && mbps <= maxRateMbps }

// Validate checks the spec for structural errors: empty topology, bad
// indices, empty or overlong routes either way, non-positive rates,
// negative times, rates, times and delays beyond the bounds above, unknown
// algorithms, AlgoTCP flows with more than one path, and malformed timelines (out-of-range link/path indices,
// decreasing or negative times, out-of-range setpoint values). It returns
// the first problem found. A spec it accepts compiles without panicking
// (FuzzSpecJSON).
func (sp *Spec) Validate() error {
	if sp.DurationSec <= 0 {
		return fmt.Errorf("scenario %q: duration must be positive, got %g", sp.Name, sp.DurationSec)
	}
	if sp.WarmupSec < 0 {
		return fmt.Errorf("scenario %q: negative warmup %g", sp.Name, sp.WarmupSec)
	}
	if !(sp.WarmupSec+sp.DurationSec <= MaxSpecSec) {
		return fmt.Errorf("scenario %q: run of %gs longer than %gs", sp.Name, sp.WarmupSec+sp.DurationSec, MaxSpecSec)
	}
	if sp.ReverseRateMbps < 0 || sp.ReverseDelayMs < 0 {
		return fmt.Errorf("scenario %q: negative reverse-path shape", sp.Name)
	}
	if (sp.ReverseRateMbps != 0 && !rateInRange(sp.ReverseRateMbps)) || !(sp.ReverseDelayMs <= maxDelayMs) {
		return fmt.Errorf("scenario %q: reverse path rate %g Mb/s or delay %g ms out of range", sp.Name, sp.ReverseRateMbps, sp.ReverseDelayMs)
	}
	if len(sp.Links) == 0 {
		return fmt.Errorf("scenario %q: no links", sp.Name)
	}
	for i, l := range sp.Links {
		if l.RateMbps <= 0 {
			return fmt.Errorf("scenario %q: link %d rate must be positive, got %g", sp.Name, i, l.RateMbps)
		}
		if !rateInRange(l.RateMbps) {
			return fmt.Errorf("scenario %q: link %d rate %g Mb/s outside [%g, %g]", sp.Name, i, l.RateMbps, minRateMbps, maxRateMbps)
		}
		if l.DelayMs < 0 {
			return fmt.Errorf("scenario %q: link %d has negative delay", sp.Name, i)
		}
		if !(l.DelayMs <= maxDelayMs) {
			return fmt.Errorf("scenario %q: link %d delay %g ms longer than %g ms", sp.Name, i, l.DelayMs, maxDelayMs)
		}
		if !(0 <= l.LossPct && l.LossPct < 100) {
			return fmt.Errorf("scenario %q: link %d loss %g%% outside [0, 100)", sp.Name, i, l.LossPct)
		}
		if l.BufferPkts < 0 {
			return fmt.Errorf("scenario %q: link %d has negative buffer", sp.Name, i)
		}
		switch l.Queue {
		case "", QueueRED, QueueDropTail:
		default:
			return fmt.Errorf("scenario %q: link %d has unknown queue kind %q", sp.Name, i, l.Queue)
		}
	}
	if len(sp.Paths) == 0 {
		return fmt.Errorf("scenario %q: no paths", sp.Name)
	}
	for i, p := range sp.Paths {
		if len(p.Links) == 0 {
			return fmt.Errorf("scenario %q: path %d crosses no links", sp.Name, i)
		}
		if len(p.Links) > maxPathLinks {
			return fmt.Errorf("scenario %q: path %d crosses %d links, more than %d", sp.Name, i, len(p.Links), maxPathLinks)
		}
		if p.DelayMs < 0 {
			return fmt.Errorf("scenario %q: path %d has negative delay", sp.Name, i)
		}
		if !(p.DelayMs <= maxDelayMs) {
			return fmt.Errorf("scenario %q: path %d delay %g ms longer than %g ms", sp.Name, i, p.DelayMs, maxDelayMs)
		}
		if p.Rev != nil && len(p.Rev) == 0 {
			return fmt.Errorf("scenario %q: path %d has an empty reverse route", sp.Name, i)
		}
		if len(p.Rev) > maxPathLinks {
			return fmt.Errorf("scenario %q: path %d reverse route crosses %d links, more than %d", sp.Name, i, len(p.Rev), maxPathLinks)
		}
		for _, route := range [][]int{p.Links, p.Rev} {
			for _, li := range route {
				if li < 0 || li >= len(sp.Links) {
					return fmt.Errorf("scenario %q: path %d references link %d (have %d)", sp.Name, i, li, len(sp.Links))
				}
			}
		}
	}
	if len(sp.Flows) == 0 {
		return fmt.Errorf("scenario %q: no flows", sp.Name)
	}
	for i, f := range sp.Flows {
		if f.Algorithm != AlgoTCP {
			if !core.Known(f.Algorithm) {
				return fmt.Errorf("scenario %q: flow %d has unknown algorithm %q", sp.Name, i, f.Algorithm)
			}
		}
		if len(f.Paths) == 0 {
			return fmt.Errorf("scenario %q: flow %d uses no paths", sp.Name, i)
		}
		if f.Algorithm == AlgoTCP && len(f.Paths) != 1 {
			return fmt.Errorf("scenario %q: flow %d: plain TCP needs exactly one path, got %d", sp.Name, i, len(f.Paths))
		}
		for _, pi := range f.Paths {
			if pi < 0 || pi >= len(sp.Paths) {
				return fmt.Errorf("scenario %q: flow %d references path %d (have %d)", sp.Name, i, pi, len(sp.Paths))
			}
		}
		if f.Count < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative count", sp.Name, i)
		}
		if f.StartSec < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative start time", sp.Name, i)
		}
		if f.StopSec < 0 || (f.StopSec > 0 && f.StopSec <= f.StartSec) {
			return fmt.Errorf("scenario %q: flow %d stop time %g not after start %g", sp.Name, i, f.StopSec, f.StartSec)
		}
		if !(f.StartSec <= MaxSpecSec && f.StopSec <= MaxSpecSec) {
			return fmt.Errorf("scenario %q: flow %d start %gs or stop %gs later than %gs", sp.Name, i, f.StartSec, f.StopSec, MaxSpecSec)
		}
		if f.FlowBytes < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative flow bytes", sp.Name, i)
		}
		if f.ChunkBytes < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative chunk bytes", sp.Name, i)
		}
		if f.MaxCwndPkts < 0 || math.IsNaN(f.MaxCwndPkts) || math.IsInf(f.MaxCwndPkts, 0) {
			return fmt.Errorf("scenario %q: flow %d window cap must be finite and non-negative, got %g", sp.Name, i, f.MaxCwndPkts)
		}
		if f.NoIncreaseCap && f.Algorithm == AlgoTCP {
			return fmt.Errorf("scenario %q: flow %d: plain TCP has no coupled increase cap to lift", sp.Name, i)
		}
		if f.ChunkBytes > 0 && f.Scheduler == "" {
			return fmt.Errorf("scenario %q: flow %d sets chunk bytes without a scheduler", sp.Name, i)
		}
		if f.Scheduler != "" {
			if _, err := mptcp.NewScheduler(f.Scheduler); err != nil {
				return fmt.Errorf("scenario %q: flow %d: %w", sp.Name, i, err)
			}
			if f.Algorithm == AlgoTCP {
				return fmt.Errorf("scenario %q: flow %d: scheduler %q needs a multipath algorithm", sp.Name, i, f.Scheduler)
			}
			if f.FlowBytes == 0 {
				return fmt.Errorf("scenario %q: flow %d: scheduler %q needs finite flow bytes", sp.Name, i, f.Scheduler)
			}
			if f.FlowBytes < int64(len(f.Paths)) {
				return fmt.Errorf("scenario %q: flow %d: %d flow bytes across %d paths", sp.Name, i, f.FlowBytes, len(f.Paths))
			}
			if f.StopSec > 0 {
				return fmt.Errorf("scenario %q: flow %d: scheduler flows cannot set a stop time", sp.Name, i)
			}
		}
		if f.ProbeControl && f.Algorithm == AlgoTCP {
			return fmt.Errorf("scenario %q: flow %d: plain TCP has no subflows to suspend", sp.Name, i)
		}
		if f.Serial {
			switch {
			case f.FlowBytes == 0:
				return fmt.Errorf("scenario %q: flow %d: serial replicas need finite flow bytes", sp.Name, i)
			case f.Algorithm != AlgoTCP && f.Scheduler == "":
				return fmt.Errorf("scenario %q: flow %d: serial multipath replicas need a scheduler to complete", sp.Name, i)
			case f.StartJitter || f.StopSec > 0 || f.ProbeControl:
				return fmt.Errorf("scenario %q: flow %d: serial replicas start on completion, without jitter, stop time or probe control", sp.Name, i)
			}
		}
	}
	if err := sp.validateTimeline(); err != nil {
		return err
	}
	return sp.validateTrace()
}

// count normalizes a FlowSpec's replica count.
func (f *FlowSpec) count() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// bufferLimit reports the hard occupancy bound (packets) of the link's
// queue, for the queue-bound invariant.
func (ls LinkSpec) bufferLimit() int {
	switch {
	case ls.BufferPkts > 0:
		return ls.BufferPkts
	case ls.Queue == QueueDropTail:
		return netem.DefaultDropTailPkts
	default: // RED
		return netem.PaperRED(int64(ls.RateMbps * 1e6)).LimitPkts
	}
}
