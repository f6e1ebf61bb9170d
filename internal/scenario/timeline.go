package scenario

import (
	"fmt"

	"mptcpsim/internal/sim"
)

// This file is the fault-injection layer of the DSL: a per-spec Timeline of
// timestamped mutations — link shaping setpoints and path up/down flaps —
// executed by a self-scheduling kernel timer in the style of the mptcp
// probe ticker. The driver draws no randomness and schedules exactly one
// event per distinct mutation time, so adding a timeline perturbs neither
// the RNG stream nor the pooling behavior of the flows it mutates, and a
// spec without one compiles to the byte-identical simulation it always did.

// TimelineEvent is one timestamped mutation of the running network. Exactly
// one of Link (a shaping setpoint) or Path (an up/down flap) must be set.
type TimelineEvent struct {
	// AtSec is the virtual time of the mutation in seconds since t=0.
	// Events must be listed in non-decreasing time order.
	AtSec float64       `json:"at_sec"`
	Link  *LinkSetpoint `json:"link,omitempty"`
	Path  *PathFlap     `json:"path,omitempty"`
}

// LinkSetpoint retargets a link's shaping parameters mid-run. Unset fields
// keep the current value: RateMbps 0 means "unchanged" (0 is never a valid
// rate), while DelayMs and LossPct — for which 0 is meaningful — are
// pointers, nil meaning "unchanged" (build them with Float). A loss of 100
// black-holes the link until a later setpoint restores it.
type LinkSetpoint struct {
	// Link indexes Spec.Links.
	Link     int      `json:"link"`
	RateMbps float64  `json:"rate_mbps,omitempty"`
	DelayMs  *float64 `json:"delay_ms,omitempty"`
	LossPct  *float64 `json:"loss_pct,omitempty"`
}

// PathFlap takes every sender routed over the path administratively down
// (Up false) or back up. Down freezes the affected senders — transmissions
// and RTO backoff stop, in-flight data drains, the coupled controller sees
// no loss storm — and up resumes them, recovering outage losses one
// retransmission timeout later.
type PathFlap struct {
	// Path indexes Spec.Paths.
	Path int  `json:"path"`
	Up   bool `json:"up"`
}

// Float builds the optional setpoint fields in literals:
// DelayMs: scenario.Float(0) clears a link's propagation delay.
func Float(v float64) *float64 { return &v }

// RateTrace expands a piecewise-constant rate trace into setpoint events:
// link holds rates[0] from startSec, rates[1] from startSec+stepSec, and so
// on. Append the result to Spec.Timeline, keeping overall time order.
func RateTrace(link int, startSec, stepSec float64, rates ...float64) []TimelineEvent {
	out := make([]TimelineEvent, 0, len(rates))
	for i, r := range rates {
		out = append(out, TimelineEvent{
			AtSec: startSec + float64(i)*stepSec,
			Link:  &LinkSetpoint{Link: link, RateMbps: r},
		})
	}
	return out
}

// validateTimeline checks the mutation timeline (part of Spec.Validate).
func (sp *Spec) validateTimeline() error {
	for i, ev := range sp.Timeline {
		if ev.AtSec < 0 {
			return fmt.Errorf("scenario %q: timeline event %d has negative time %g", sp.Name, i, ev.AtSec)
		}
		if !(ev.AtSec <= MaxSpecSec) {
			return fmt.Errorf("scenario %q: timeline event %d at %gs later than %gs", sp.Name, i, ev.AtSec, MaxSpecSec)
		}
		if i > 0 && ev.AtSec < sp.Timeline[i-1].AtSec {
			return fmt.Errorf("scenario %q: timeline event %d at %gs before event %d at %gs: times must be non-decreasing",
				sp.Name, i, ev.AtSec, i-1, sp.Timeline[i-1].AtSec)
		}
		switch {
		case ev.Link == nil && ev.Path == nil, ev.Link != nil && ev.Path != nil:
			return fmt.Errorf("scenario %q: timeline event %d must set exactly one of link setpoint or path flap", sp.Name, i)
		case ev.Link != nil:
			ls := ev.Link
			if ls.Link < 0 || ls.Link >= len(sp.Links) {
				return fmt.Errorf("scenario %q: timeline event %d references link %d (have %d)", sp.Name, i, ls.Link, len(sp.Links))
			}
			if ls.RateMbps < 0 {
				return fmt.Errorf("scenario %q: timeline event %d has negative rate %g", sp.Name, i, ls.RateMbps)
			}
			if ls.RateMbps != 0 && !rateInRange(ls.RateMbps) {
				return fmt.Errorf("scenario %q: timeline event %d rate %g Mb/s outside [%g, %g]", sp.Name, i, ls.RateMbps, minRateMbps, maxRateMbps)
			}
			if ls.DelayMs != nil && *ls.DelayMs < 0 {
				return fmt.Errorf("scenario %q: timeline event %d has negative delay %g", sp.Name, i, *ls.DelayMs)
			}
			if ls.DelayMs != nil && !(*ls.DelayMs <= maxDelayMs) {
				return fmt.Errorf("scenario %q: timeline event %d delay %g ms longer than %g ms", sp.Name, i, *ls.DelayMs, maxDelayMs)
			}
			if ls.LossPct != nil && !(0 <= *ls.LossPct && *ls.LossPct <= 100) {
				return fmt.Errorf("scenario %q: timeline event %d loss %g%% outside [0, 100]", sp.Name, i, *ls.LossPct)
			}
			if ls.RateMbps == 0 && ls.DelayMs == nil && ls.LossPct == nil {
				return fmt.Errorf("scenario %q: timeline event %d changes nothing", sp.Name, i)
			}
		default: // ev.Path != nil
			if ev.Path.Path < 0 || ev.Path.Path >= len(sp.Paths) {
				return fmt.Errorf("scenario %q: timeline event %d references path %d (have %d)", sp.Name, i, ev.Path.Path, len(sp.Paths))
			}
		}
	}
	return nil
}

// retargets reports whether any timeline setpoint retargets link l's delay
// and its loss, so addLink can give the link a pipe of its own and pre-build
// the (transparent, randomness-free) loss element the driver will mutate.
func (n *Net) retargets(l int) (delay, loss bool) {
	for i := range n.Spec.Timeline {
		if ls := n.Spec.Timeline[i].Link; ls != nil && ls.Link == l {
			delay = delay || ls.DelayMs != nil
			loss = loss || ls.LossPct != nil
		}
	}
	return delay, loss
}

// pathRef locates one sender of one flow replica on a flapped path.
type pathRef struct {
	flow *Flow
	sub  int // index into flow.Srcs (FlowSpec.Paths order)
}

// set flaps the referenced sender; multipath flows go through the
// connection so mptcp owns the subflow's up/down semantics.
//
//simlint:hot
func (pr pathRef) set(up bool) {
	if pr.flow.Conn != nil {
		pr.flow.Conn.SetPathUp(pr.sub, up)
		return
	}
	if up {
		pr.flow.Srcs[pr.sub].Unfreeze()
	} else {
		pr.flow.Srcs[pr.sub].Freeze()
	}
}

// timelineDriver executes the spec's mutation timeline: a self-scheduling
// kernel timer (the mptcp probe-ticker idiom) holding a cursor into the
// validated, time-ordered event list. Each firing applies every event due
// at the current instant, then re-arms for the next distinct time; steady
// state allocates nothing and draws no randomness.
type timelineDriver struct {
	net  *Net
	next int // cursor into net.Spec.Timeline
}

// RunEvent applies all due mutations and re-arms (sim.Handler).
func (td *timelineDriver) RunEvent(now sim.Time) {
	evs := td.net.Spec.Timeline
	for td.next < len(evs) && sim.Seconds(evs[td.next].AtSec) <= now {
		td.net.applyEvent(&evs[td.next])
		td.next++
	}
	if td.next < len(evs) {
		td.net.Sim.Schedule(sim.Seconds(evs[td.next].AtSec), td, sim.KindControl)
	}
}

// applyEvent executes one mutation against the live network.
func (n *Net) applyEvent(ev *TimelineEvent) {
	if ls := ev.Link; ls != nil {
		l := n.Links[ls.Link]
		if ls.RateMbps > 0 {
			l.Queue.SetRateBps(int64(ls.RateMbps * 1e6))
		}
		if ls.DelayMs != nil {
			l.Pipe.SetDelay(sim.Millis(*ls.DelayMs))
		}
		if ls.LossPct != nil {
			// Loss is pre-built by Compile for every link a setpoint touches.
			l.Loss.SetProb(*ls.LossPct / 100)
		}
		return
	}
	for _, pr := range n.pathFlows[ev.Path.Path] {
		pr.set(ev.Path.Up)
	}
}
