package mptcp

import (
	"fmt"
	"sort"

	"mptcpsim/internal/core"
)

// This file is the subflow-scheduling layer: where the coupled controllers
// decide how much each subflow may send, a Scheduler decides which subflow
// carries each next data-level chunk — the other half of MPTCP performance
// the paper leaves to the implementation. Stream consults the scheduler on
// two occasions: when a subflow drains its assignment and asks for the next
// chunk (a pull), and when a span stranded on a flapped subflow needs a new
// home (a reinjection).
//
// Determinism contract: schedulers draw no randomness. A decision is a pure
// function of the SchedView snapshot plus at most the scheduler's own
// per-stream state (the round-robin cursor), so a run is byte-identical per
// (spec, seed) at any worker count.

// SchedView is the read-only per-subflow state a Scheduler may consult:
// the core.ConnView accessors (window, smoothed RTT, MSS) plus the
// in-flight and administrative-state signals scheduling policies need.
// *Conn implements it.
type SchedView interface {
	core.ConnView
	// InFlightBytes reports subflow i's unacknowledged bytes in the network.
	InFlightBytes(i int) int64
	// PathUp reports whether subflow i is administratively up (not frozen).
	PathUp(i int) bool
}

// schedView is the SchedView a stream hands its scheduler: the connection,
// except that a subflow's window is the one its sender may fill, capped by
// tcp.Config.MaxCwndPkts, so a capped subflow shows no headroom it cannot
// use. One pointer in an interface: passing it allocates nothing.
type schedView struct{ *Conn }

// CwndPkts reports subflow i's effective window in packets.
func (v schedView) CwndPkts(i int) float64 { return v.subs[i].Src.EffCwndPkts() }

// ReinjectPick is the Pick request marker for reinjection: no subflow is
// asking, the stream needs any live target for a stranded span.
const ReinjectPick = -1

// Scheduler decides the target subflow for each next data chunk.
type Scheduler interface {
	// Name is the registry handle ("pull", "minrtt", ...).
	Name() string
	// Pick answers one scheduling request. For want >= 0, subflow `want`
	// has drained its assignment and asks for the next chunk: return the
	// subflow that should receive it (normally want itself), or a negative
	// value to hold the chunk back — the stream re-offers on the next
	// delivery or path event. For want == ReinjectPick, choose a target for
	// a span stranded on a downed subflow; a negative return lets the
	// stream fall back to the first live subflow.
	Pick(v SchedView, want int, remaining int64) int
	// Replicates reports redundant mode: the stream duplicates every chunk
	// onto all subflows and the first delivery wins.
	Replicates() bool
}

// NewScheduler builds a fresh scheduler instance by registry name. Each
// stream needs its own instance (round-robin keeps a cursor).
func NewScheduler(name string) (Scheduler, error) {
	mk, ok := schedulers[name]
	if !ok {
		return nil, fmt.Errorf("mptcp: unknown scheduler %q (have %v)", name, Schedulers())
	}
	return mk(), nil
}

// Schedulers lists the registered scheduler names, sorted.
func Schedulers() []string {
	out := make([]string, 0, len(schedulers))
	for name := range schedulers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// schedulers maps registry names to instance constructors.
var schedulers = map[string]func() Scheduler{
	"pull":       func() Scheduler { return pullSched{} },
	"minrtt":     func() Scheduler { return minRTTSched{} },
	"roundrobin": func() Scheduler { return &rrSched{} },
	"ecf":        func() Scheduler { return ecfSched{} },
	"redundant":  func() Scheduler { return redundantSched{} },
}

// srttOf reads subflow i's smoothed RTT, substituting the pre-sample
// default so an unmeasured path neither sorts as instantly fastest (SRTT 0)
// nor starves behind every measured one.
func srttOf(v SchedView, i int) float64 {
	if s := v.SRTT(i); s > 0 {
		return s
	}
	return core.DefaultRTT
}

// headroom reports whether subflow i's congestion window admits at least
// one more full segment beyond the bytes already in flight.
func headroom(v SchedView, i int) bool {
	mss := float64(v.MSS())
	return float64(v.InFlightBytes(i))+mss <= v.CwndPkts(i)*mss
}

// fastestUp returns the lowest-SRTT up subflow (ties to the lower index),
// or -1 when every subflow is down. withRoom additionally requires cwnd
// headroom.
func fastestUp(v SchedView, withRoom bool) int {
	best, bestSRTT := -1, 0.0
	for i := 0; i < v.NumFlows(); i++ {
		if !v.PathUp(i) || (withRoom && !headroom(v, i)) {
			continue
		}
		if s := srttOf(v, i); best < 0 || s < bestSRTT {
			best, bestSRTT = i, s
		}
	}
	return best
}

// pullSched is today's demand-driven policy, byte-identical to the
// hardwired Stream behavior: whichever subflow drains its assignment pulls
// the next chunk, so faster subflows naturally carry more data. It never
// volunteers a target on re-offers or reinjection (the stream's first-live
// fallback handles those), which keeps the assignment sequence of every
// flap-free run exactly as before the scheduler extraction.
type pullSched struct{}

func (pullSched) Name() string     { return "pull" }
func (pullSched) Replicates() bool { return false }
func (pullSched) Pick(v SchedView, want int, remaining int64) int {
	return want // want itself, or the ReinjectPick fallback
}

// minRTTSched is the Linux default policy: the next chunk goes to the
// lowest-SRTT up subflow with window space. A slower subflow asking while a
// faster one has room is held back (the faster one is, by construction of
// the pull loop, out of assigned data whenever it has headroom, so it will
// claim the chunk on the same re-offer pass).
type minRTTSched struct{}

func (minRTTSched) Name() string     { return "minrtt" }
func (minRTTSched) Replicates() bool { return false }
func (minRTTSched) Pick(v SchedView, want int, remaining int64) int {
	return fastestUp(v, true)
}

// rrSched rotates chunks across up subflows with window space, ignoring
// RTT: the classic fairness-over-latency strawman (and the policy that
// makes reassembly head-of-line blocking visible on asymmetric paths).
type rrSched struct {
	cursor int
}

func (*rrSched) Name() string     { return "roundrobin" }
func (*rrSched) Replicates() bool { return false }
func (r *rrSched) Pick(v SchedView, want int, remaining int64) int {
	n := v.NumFlows()
	for k := 0; k < n; k++ {
		i := (r.cursor + k) % n
		if !v.PathUp(i) || !headroom(v, i) {
			continue
		}
		if want >= 0 && i != want {
			// The rotation owes the chunk to another eligible subflow;
			// hold this one back until the cursor comes around.
			return -1
		}
		r.cursor = (i + 1) % n
		return i
	}
	return -1
}

// ecfSched is Earliest Completion First (Lim et al., the mptcp_ecf kernel
// scheduler): prefer the fastest subflow like minrtt, but when the fastest
// subflow F is window-limited, estimate whether waiting for F still
// completes the remaining bytes sooner than sending now on the slower
// asking subflow — if so, send nothing and wait for F.
type ecfSched struct{}

func (ecfSched) Name() string     { return "ecf" }
func (ecfSched) Replicates() bool { return false }
func (ecfSched) Pick(v SchedView, want int, remaining int64) int {
	f := fastestUp(v, false)
	if f < 0 {
		return -1
	}
	if headroom(v, f) {
		// The fastest subflow can send now; the chunk is its (it is asking,
		// or will ask on this same re-offer pass).
		if want == ReinjectPick {
			return f
		}
		if want == f {
			return f
		}
		return -1
	}
	// F is window-limited. Consider the asking (slower) subflow.
	s := want
	if s == ReinjectPick {
		s = fastestUp(v, true)
	}
	if s < 0 || s == f || !v.PathUp(s) || !headroom(v, s) {
		return -1
	}
	// Completion estimate on F: one RTT per cwnd-sized burst of the
	// remaining bytes, after waiting out the current round.
	srttF, srttS := srttOf(v, f), srttOf(v, s)
	cwndF := v.CwndPkts(f) * float64(v.MSS())
	if cwndF < float64(v.MSS()) {
		cwndF = float64(v.MSS())
	}
	rounds := float64(remaining) / cwndF
	waitF := srttF * (1 + rounds)
	if waitF < srttS {
		return -1 // waiting for the fast subflow still finishes sooner
	}
	return s
}

// redundantSched duplicates every chunk onto all subflows (the kernel
// mptcp_redundant / red-scheduler policy): each subflow walks the whole
// data stream independently and the first delivery of each span wins,
// trading aggregate throughput for latency and loss resilience. The stream
// special-cases Replicates() — Pick is only consulted for reinjection,
// which redundancy makes moot (every other subflow already carries the
// data).
type redundantSched struct{}

func (redundantSched) Name() string     { return "redundant" }
func (redundantSched) Replicates() bool { return true }
func (redundantSched) Pick(v SchedView, want int, remaining int64) int {
	return want
}
