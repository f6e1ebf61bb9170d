package mptcp

import (
	"fmt"

	"mptcpsim/internal/sim"
)

// Probe control implements the paper's §VII future-work suggestion of
// "varying the minimum probing traffic rate ... by discarding bad paths from
// the set of available paths": a subflow whose window has sat at the floor
// for probeSuspendAfter is paused entirely (zero traffic, below the
// 1-MSS-per-RTT probing cost of a window-based algorithm) and re-probed
// every probeReprobe by resuming it. If the path has recovered, the coupled
// controller will grow it again; otherwise it is re-suspended after another
// probeSuspendAfter at the floor.
//
// The tradeoff is responsiveness: while suspended, a path's recovery is only
// noticed at the next re-probe. The ext-probe experiment quantifies both
// sides.
const (
	// probeFloorPkts is the window (packets) at or below which a path counts
	// as "bad". The minimum window is 1 packet, so any path pinned at the
	// minimum is bad.
	probeFloorPkts = 1.5
	// probeSuspendAfter is how long a path sits at the floor before it is
	// paused.
	probeSuspendAfter = 5 * sim.Second
	// probeReprobe is how long a paused path waits before it is retried.
	probeReprobe = 10 * sim.Second
	// probeTick is the monitoring period.
	probeTick = 500 * sim.Millisecond
)

// probeState tracks one subflow's suspension bookkeeping.
type probeState struct {
	atFloorFor sim.Time
	suspended  bool
	resumeAt   sim.Time
	suspends   int
}

// probeTicker runs the periodic monitoring pass as a sim.Handler, so each
// tick reschedules through the kernel's pooled fast path without allocating
// a closure or event.
type probeTicker struct {
	c      *Conn
	states []probeState
}

// RunEvent performs one monitoring pass and schedules the next.
func (pt *probeTicker) RunEvent(now sim.Time) {
	c, states := pt.c, pt.states
	active := 0
	for i := range c.subs {
		if !states[i].suspended {
			active++
		}
	}
	for i, sf := range c.subs {
		st := &states[i]
		if st.suspended {
			if now >= st.resumeAt {
				st.suspended = false
				st.atFloorFor = 0
				sf.Src.Resume()
				active++
			}
			continue
		}
		if sf.Src.CwndPkts() <= probeFloorPkts {
			st.atFloorFor += probeTick
		} else {
			st.atFloorFor = 0
		}
		if st.atFloorFor >= probeSuspendAfter && active > 1 {
			st.suspended = true
			st.suspends++
			st.resumeAt = now + probeReprobe
			sf.Src.Pause()
			active--
		}
	}
	c.sim.ScheduleAfter(probeTick, pt)
}

// EnableProbeControl starts monitoring the connection's subflows, pausing
// those stuck at the window floor (see probeFloorPkts). Call after Start.
// At least one subflow is always kept active, so the connection can never
// suspend itself entirely.
func (c *Conn) EnableProbeControl() {
	if len(c.subs) == 0 {
		panic(fmt.Sprintf("mptcp: %s: probe control before subflows exist", c.name))
	}
	states := make([]probeState, len(c.subs))
	c.probeStates = states
	c.sim.ScheduleAfter(probeTick, &probeTicker{c: c, states: states})
}

// SuspendCount reports how many times subflow i has been suspended by probe
// control (0 if probe control is disabled).
func (c *Conn) SuspendCount(i int) int {
	if c.probeStates == nil {
		return 0
	}
	return c.probeStates[i].suspends
}

// Suspended reports whether subflow i is currently paused by probe control.
func (c *Conn) Suspended(i int) bool {
	if c.probeStates == nil {
		return false
	}
	return c.probeStates[i].suspended
}
