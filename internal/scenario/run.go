package scenario

import (
	"context"
	"fmt"
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// samplePeriod is the cadence of the runtime invariant monitor. Sampling
// schedules its own events but draws no randomness and never touches a
// packet, so it cannot perturb the simulated dynamics.
const samplePeriod = 100 * sim.Millisecond

// QueueReport is the end-of-run view of one link's queue.
type QueueReport struct {
	Link     int            `json:"link"`
	Total    netem.Counters `json:"total"`  // since t=0
	Window   netem.Counters `json:"window"` // measured window only
	FinalLen int            `json:"final_len"`
	MaxLen   int            `json:"max_len"` // largest sampled backlog
	// LossDropped counts packets removed by the link's random-loss element.
	LossDropped int64 `json:"loss_dropped,omitempty"`
}

// FlowReport is the end-of-run view of one flow replica.
type FlowReport struct {
	Name      string `json:"name"`
	Algorithm string `json:"algorithm"`
	// GoodputMbps is the in-order delivery rate over the measured window;
	// PathMbps splits it per path in FlowSpec.Paths order.
	GoodputMbps float64   `json:"goodput_mbps"`
	PathMbps    []float64 `json:"path_mbps"`
	// GoodputBytes is the total in-order delivery since t=0 (the re-run
	// identity digest uses exact byte counts, not rates).
	GoodputBytes int64 `json:"goodput_bytes"`
	SentPkts     int64 `json:"sent_pkts"`
	Timeouts     int64 `json:"timeouts"`
	// Stream reports the scheduled transfer, present only for flows with
	// FlowSpec.Scheduler set.
	Stream *StreamReport `json:"stream,omitempty"`
	// WindowBytes is the in-order delivery over the measured window summed
	// over the paths: the exact bytes PathMbps are the rates of.
	WindowBytes int64 `json:"window_bytes"`
	// CompletionSec is a finite plain-TCP flow's transfer duration, start
	// to full acknowledgment; 0 until it completes. A scheduled stream's is
	// Stream.CompletionSec.
	CompletionSec float64 `json:"completion_sec,omitempty"`
	// Suspends counts the probe-control suspensions of the flow's subflows
	// (FlowSpec.ProbeControl).
	Suspends int `json:"suspends,omitempty"`
}

// StreamReport is the end-of-run view of one scheduled finite transfer.
type StreamReport struct {
	Scheduler string `json:"scheduler"`
	// Done reports full in-order delivery within the run; CompletionSec is
	// the transfer duration (start to full delivery), valid only when Done.
	Done          bool    `json:"done"`
	CompletionSec float64 `json:"completion_sec,omitempty"`
	// InOrderBytes is the contiguous data-level prefix delivered by the end
	// of the run; DeliveredBytes counts distinct data bytes in any order (a
	// redundant duplicate counts once).
	InOrderBytes   int64 `json:"in_order_bytes"`
	DeliveredBytes int64 `json:"delivered_bytes"`
}

// RunReport is the outcome of one scenario run: measurements plus every
// invariant violation the monitor and the post-run checks detected.
type RunReport struct {
	Name      string        `json:"name"`
	Seed      int64         `json:"seed"`
	Flows     []FlowReport  `json:"flows"`
	Queues    []QueueReport `json:"queues"`
	Processed uint64        `json:"processed"`
	// Violations lists every failed invariant, empty on a clean run.
	Violations []string `json:"violations,omitempty"`
	// Trace holds the series of Spec.Trace, nil without one.
	Trace *TraceReport `json:"trace,omitempty"`
	// Stats is the work the run took: derived, no part of its Digest.
	Stats Stats `json:"stats"`
}

// Stats is a run's work counters: the kernel's (sim.Stats) and the packet
// pool's (netem.PoolStats). A fixed-size value, so a report decoded into
// one it recycles allocates nothing for it.
type Stats struct {
	HeapMax int `json:"heap_max"` // the most events pending at once
	// DataMax and AcksMax are the data segments and ACKs the run's packet
	// pool carved slabs for: the most of each kind alive at once, rounded
	// up to a slab.
	DataMax int `json:"data_max"`
	AcksMax int `json:"acks_max"`
	// SiftDown and SiftUp are the loop iterations of the kernel heap's
	// sifts, down and up: its work beside the handlers'.
	SiftDown uint64 `json:"sift_down"`
	SiftUp   uint64 `json:"sift_up"`
	// Events counts the events processed by their handler's sim.Kind; it
	// sums to Processed.
	Events [sim.NumKinds]uint64 `json:"events"`
}

// Group returns the reports of the replicas of the first sp.Flows entry
// called name, where r is a run of sp's compiled network: Compile adds
// every replica of every group in listing order, so a group's reports sit
// together, in sp's order. It is nil when sp lists no such group.
func (r *RunReport) Group(sp *Spec, name string) []FlowReport {
	at := 0
	for i := range sp.Flows {
		n := sp.Flows[i].count()
		if sp.Flows[i].Name == name {
			return r.Flows[at : at+n]
		}
		at += n
	}
	return nil
}

// Violate appends a formatted violation. It only runs when an invariant
// has already failed, so its formatting cost is off the hot path.
//
//simlint:cold
func (r *RunReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// monitor samples runtime invariants while the simulation advances.
type monitor struct {
	net    *Net
	report *RunReport

	// prevCum and prevAcked are the last sampled per-sink cumulative-ACK
	// and per-src acked-bytes marks, flattened over flows then paths.
	prevCum   []int64
	prevAcked []int64
	maxLen    []int
	// qBase holds each link's queue counters as the warm-up closed, and
	// base each sink's in-order bytes then, flattened likewise.
	qBase []netem.Counters
	base  []int64
}

func newMonitor(n *Net, r *RunReport) *monitor {
	var nEnd int
	for _, f := range n.Flows {
		nEnd += len(f.Sinks)
	}
	return &monitor{
		net:       n,
		report:    r,
		prevCum:   make([]int64, nEnd),
		prevAcked: make([]int64, nEnd),
		maxLen:    make([]int, len(n.Links)),
		qBase:     make([]netem.Counters, len(n.Links)),
		base:      make([]int64, 0, nEnd),
	}
}

// windowOpen is the monitor's one-shot event at Net.Warmup: it snaps the
// bases the measured window is counted from (sim.Handler).
type windowOpen monitor

// RunEvent snaps every sink's base, once per run.
//
//simlint:cold
func (w *windowOpen) RunEvent(sim.Time) {
	for i, l := range w.net.Links {
		w.qBase[i] = l.Queue.Stats()
	}
	for _, f := range w.net.Flows {
		for _, k := range f.Sinks {
			w.base = append(w.base, k.GoodputBytes())
		}
	}
}

// RunEvent takes one sample and re-arms (sim.Handler). Schedule is the
// pooled fire-and-forget path, so the self-ticking monitor allocates no
// events in steady state.
func (m *monitor) RunEvent(now sim.Time) {
	m.sample(now)
	m.net.Sim.Schedule(now+samplePeriod, m, sim.KindObserve)
}

// sample checks the instantaneous invariants: queue occupancy within the
// configured bound, congestion windows positive and finite, sequence
// progress (cumulative ACKs, sender acked bytes) monotone.
func (m *monitor) sample(now sim.Time) {
	for i, l := range m.net.Links {
		ln := l.Queue.Len()
		if ln > m.maxLen[i] {
			m.maxLen[i] = ln
		}
		if ln < 0 || ln > l.LimitPkts {
			m.report.violate("t=%v: link %d queue occupancy %d outside [0, %d]", now, i, ln, l.LimitPkts)
		}
	}
	k := 0
	for _, f := range m.net.Flows {
		for pi := range f.Sinks {
			cum := f.Sinks[pi].CumAck()
			if cum < m.prevCum[k] {
				m.report.violate("t=%v: flow %s path %d cumulative ACK went backwards (%d -> %d)",
					now, f.Name, pi, m.prevCum[k], cum)
			}
			m.prevCum[k] = cum
			acked := f.Srcs[pi].AckedBytes()
			if acked < m.prevAcked[k] {
				m.report.violate("t=%v: flow %s path %d sender acked-bytes went backwards (%d -> %d)",
					now, f.Name, pi, m.prevAcked[k], acked)
			}
			m.prevAcked[k] = acked
			k++
			cwnd := f.Srcs[pi].CwndPkts()
			if !(cwnd > 0) || math.IsInf(cwnd, 0) || math.IsNaN(cwnd) {
				m.report.violate("t=%v: flow %s path %d cwnd %g not positive and finite", now, f.Name, pi, cwnd)
			}
		}
	}
}

// Run compiles and executes the scenario; see Net.Run.
func Run(ctx context.Context, sp *Spec) (*RunReport, error) {
	n, err := Compile(sp)
	if err != nil {
		return nil, err
	}
	return n.Run(ctx)
}

// Run executes the compiled scenario once, measuring goodput over
// [Warmup, Warmup+Duration] and checking every invariant:
//
//   - queue occupancy stays within the configured buffer bound (sampled);
//   - congestion windows stay positive and finite (sampled);
//   - cumulative ACKs and sender progress never regress (sampled);
//   - per-queue packet conservation: arrivals = served + dropped + backlog;
//   - per-link throughput never exceeds capacity over the window;
//   - global packet conservation: every data segment sent is matched by a
//     delivered ACK, a segment its sink absorbed without one (delayed
//     ACKs), a drop somewhere, or an in-flight packet.
//
// Violations are collected in the report rather than returned as errors so
// a fuzzing run can report every broken invariant of a scenario at once.
// With a Spec.Trace, the report also carries the series it sampled.
//
// Cancelling ctx abandons the simulation at the next one-second
// virtual-time boundary and returns an error wrapping ctx.Err(). The
// cancellation probe never perturbs the run: sim.RunUntil is exact at
// window boundaries, so a run sliced into chunks processes the identical
// event sequence as one uninterrupted call (and with a background context
// the slicing is skipped entirely).
//
// A Net runs once. However Run returns — done, cancelled or panicking — it
// hands the run's memory back: the simulation's generator
// (sim.Sim.ReleaseRand), after which the kernel refuses to schedule or
// advance, and the packet pool's slabs (netem.PacketPool.Release), after
// which nothing may read a packet through the network. A second Run
// returns an error naming the network and touches nothing.
func (n *Net) Run(ctx context.Context) (*RunReport, error) {
	if n.running {
		return nil, fmt.Errorf("scenario %q: Run called again: a Net runs once", n.Spec.Name)
	}
	n.running = true
	defer n.Sim.ReleaseRand()
	defer netem.PoolFor(n.Sim).Release()
	r := &RunReport{Name: n.Spec.Name, Seed: n.Spec.Seed}
	m := newMonitor(n, r)

	// Every periodic observation is armed here: the trace first, then the
	// window snapshot and the monitor.
	if n.trace != nil {
		r.Trace = n.trace.rep
		n.Sim.Schedule(0, n.trace, sim.KindObserve)
	}
	n.Sim.Schedule(n.Warmup, (*windowOpen)(m), sim.KindObserve)
	m.RunEvent(0) // first sample at t=0, then every samplePeriod
	if err := advanceUntil(ctx, n.Sim, 0, n.End); err != nil {
		return nil, fmt.Errorf("scenario %q: run canceled: %w", n.Spec.Name, err)
	}

	secs := n.Spec.DurationSec
	r.Flows = make([]FlowReport, 0, len(n.Flows))
	r.Queues = make([]QueueReport, 0, len(n.Links))
	at := 0 // the next sink base in m.base
	for _, f := range n.Flows {
		fr := FlowReport{
			Name:      f.Name,
			Algorithm: f.Algorithm,
			SentPkts:  f.SentPkts(),
			PathMbps:  make([]float64, 0, len(f.Sinks)),
		}
		for _, k := range f.Sinks {
			win := k.GoodputBytes() - m.base[at]
			at++
			mbps := stats.Mbps(win, secs)
			fr.PathMbps = append(fr.PathMbps, mbps)
			fr.GoodputMbps += mbps
			fr.GoodputBytes += k.GoodputBytes()
			fr.WindowBytes += win
		}
		for i, s := range f.Srcs {
			fr.Timeouts += s.Stats().Timeouts
			if f.Conn != nil {
				fr.Suspends += f.Conn.SuspendCount(i)
			}
		}
		if src := f.Srcs[0]; f.Conn == nil && src.Done() {
			fr.CompletionSec = src.CompletionTime().Sec()
		}
		if f.Stream != nil {
			sr := &StreamReport{
				Scheduler:      f.Stream.SchedulerName(),
				Done:           f.Stream.Done(),
				InOrderBytes:   f.Stream.InOrderBytes(),
				DeliveredBytes: f.Stream.DeliveredBytes(),
			}
			if sr.Done {
				sr.CompletionSec = f.Stream.CompletionTime().Sec()
			}
			fr.Stream = sr
		}
		r.Flows = append(r.Flows, fr)
	}
	for i, l := range n.Links {
		c := l.Queue.Stats()
		qr := QueueReport{
			Link:     i,
			Total:    c,
			Window:   c.Sub(m.qBase[i]),
			FinalLen: l.Queue.Len(),
			MaxLen:   m.maxLen[i],
		}
		if l.Loss != nil {
			qr.LossDropped = l.Loss.Dropped
		}
		r.Queues = append(r.Queues, qr)
	}
	r.Processed = n.Sim.Processed()
	ks, ps := n.Sim.Stats(), netem.PoolFor(n.Sim).Stats()
	r.Stats = Stats{HeapMax: ks.HeapMax, DataMax: ps.Data, AcksMax: ps.Acks,
		SiftDown: ks.SiftDown, SiftUp: ks.SiftUp, Events: ks.Events}

	checkConservation(n, r)
	checkCapacity(n, r)
	return r, nil
}

// advanceUntil advances s from virtual time `from` to `to`, observing ctx
// at one-second virtual-time boundaries and returning ctx.Err() when
// cancelled mid-run. sim.RunUntil is exact at window boundaries, so the
// sliced execution processes the identical event sequence as one
// uninterrupted call; with a non-cancellable context the slicing is
// skipped entirely.
func advanceUntil(ctx context.Context, s *sim.Sim, from, to sim.Time) error {
	if ctx.Done() == nil {
		s.RunUntil(to)
		return nil
	}
	for t := from; t < to; {
		if err := ctx.Err(); err != nil {
			return err
		}
		t += sim.Second
		if t > to {
			t = to
		}
		s.RunUntil(t)
	}
	return ctx.Err()
}

// checkConservation verifies per-queue and global packet accounting at the
// end of the run.
func checkConservation(n *Net, r *RunReport) {
	for i, l := range n.Links {
		c := l.Queue.Stats()
		if got := c.SentPkts + c.DroppedPkts + int64(l.Queue.Len()); c.ArrivedPkts != got {
			r.violate("link %d queue leaks packets: %d arrived, %d served+dropped+queued",
				i, c.ArrivedPkts, got)
		}
	}

	var sent, acked, unacked, dropped, inflight int64
	if n.Rev != nil {
		rc := n.Rev.Q.Stats()
		if got := rc.SentPkts + rc.DroppedPkts + int64(n.Rev.Q.Len()); rc.ArrivedPkts != got {
			r.violate("reverse queue leaks packets: %d arrived, %d served+dropped+queued", rc.ArrivedPkts, got)
		}
		dropped += rc.DroppedPkts
		inflight += int64(n.Rev.Q.Len())
	}

	// Global: data segments sent = ACKs delivered + segments a sink took in
	// without emitting an ACK (none unless delayed ACKs are on) + drops + in
	// flight, which closes the loop around both directions — also where one
	// queue carries some flows' data and other flows' ACKs, since every
	// queue's drops and backlog count, whichever kind of packet they are.
	for _, f := range n.Flows {
		sent += f.SentPkts()
		acked += f.AckTap.Pkts
		for _, k := range f.Sinks {
			unacked += k.RecvPkts() - k.AckPkts()
		}
	}
	for _, l := range n.Links {
		dropped += l.Queue.Stats().DroppedPkts
		if l.Loss != nil {
			dropped += l.Loss.Dropped
		}
		inflight += int64(l.Queue.Len())
	}
	for _, p := range n.pipes {
		inflight += int64(p.InFlight())
	}
	for _, p := range n.private {
		inflight += int64(p.InFlight())
	}
	if got := acked + unacked + dropped + inflight; sent != got {
		r.violate("packet conservation broken: %d data segments sent, %d acked + %d absorbed unacked + %d dropped + %d in flight = %d",
			sent, acked, unacked, dropped, inflight, got)
	}
}

// checkCapacity verifies that no queue served more bytes over the measured
// window than its line rate allows. With a timeline the bound is the time
// integral of the link's piecewise-constant rate profile. The slack covers
// a packet whose serialization straddles each window edge, plus one packet
// per in-window rate transition (the in-service packet finishes on the
// schedule armed under the old rate).
func checkCapacity(n *Net, r *RunReport) {
	for i := range r.Queues {
		w := r.Queues[i].Window
		capBytes, transitions := n.windowCapBytes(i)
		slack := float64((2 + transitions) * netem.MSS)
		if float64(w.SentBytes) > capBytes+slack {
			r.violate("link %d served %d bytes in %gs, above time-varying capacity %.0f",
				i, w.SentBytes, n.Spec.DurationSec, capBytes)
		}
	}
}

// windowCapBytes integrates link l's rate profile — the rate it was built
// with plus every timeline rate setpoint — over the measured window,
// reporting the byte bound and the number of in-window rate transitions.
func (n *Net) windowCapBytes(l int) (capBytes float64, transitions int) {
	from := n.Spec.WarmupSec
	to := n.Spec.WarmupSec + n.Spec.DurationSec
	rate := n.Links[l].Spec.RateMbps
	t := from
	timeline := n.Spec.Timeline
	for i := range timeline {
		ev := timeline[i].Link
		if ev == nil || ev.Link != l || ev.RateMbps <= 0 {
			continue
		}
		at := timeline[i].AtSec
		if at > to {
			break // events are time-ordered; nothing later is in the window
		}
		if at <= from {
			rate = ev.RateMbps // already in effect when the window opens
			continue
		}
		capBytes += rate * 1e6 / 8 * (at - t)
		rate = ev.RateMbps
		t = at
		transitions++
	}
	capBytes += rate * 1e6 / 8 * (to - t)
	return capBytes, transitions
}
