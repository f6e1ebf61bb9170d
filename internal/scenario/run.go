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
	// and per-src acked-bytes marks, flattened over flows then paths. Flows
	// only ever join the end of Net.Flows, so a position keeps its meaning
	// while the slices grow behind it for flows added mid-run.
	prevCum   []int64
	prevAcked []int64
	maxLen    []int
	// qBase holds each link's queue counters as the warm-up closed.
	qBase []netem.Counters
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
	}
}

// windowOpen is the monitor's one-shot event at Net.Warmup: it snaps the
// bases the measured window is counted from (sim.Handler).
type windowOpen monitor

// RunEvent allocates each flow's Window, once per run.
//
//simlint:cold
func (w *windowOpen) RunEvent(sim.Time) {
	for i, l := range w.net.Links {
		w.qBase[i] = l.Queue.Stats()
	}
	for _, f := range w.net.Flows {
		f.Window = make([]int64, len(f.Sinks))
		for pi, k := range f.Sinks {
			f.Window[pi] = k.GoodputBytes()
		}
	}
}

// RunEvent takes one sample and re-arms (sim.Handler). Schedule is the
// pooled fire-and-forget path, so the self-ticking monitor allocates no
// events in steady state.
func (m *monitor) RunEvent(now sim.Time) {
	m.sample(now)
	m.net.Sim.Schedule(now+samplePeriod, m)
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
			if k == len(m.prevCum) { // first sample of a flow added mid-run
				m.prevCum = append(m.prevCum, 0)
				m.prevAcked = append(m.prevAcked, 0)
			}
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

// Probe is one named observation a Trace samples.
type Probe struct {
	Name string
	Fn   func() float64
}

// Trace is the sampled series of a set of probes: Net.Run samples every
// probe at t = 0, period, 2·period, … up to Net.End. T is the shared time
// column and V[i] the values of the probe called Names[i].
type Trace struct {
	Names []string
	T     []sim.Time
	V     [][]float64

	net    *Net
	period sim.Time
	probes []Probe
}

// Trace registers probes to be sampled every period while n runs and
// returns their series, filled in as Run advances. It panics on a
// nonpositive period, and once Run has started: a trace is part of the run,
// armed with it. Like the invariant monitor, sampling schedules its own
// events but draws no randomness and touches no packet, so a traced run
// reaches the untraced run's digest with one more processed event per
// sample.
func (n *Net) Trace(period sim.Time, probes ...Probe) *Trace {
	if period <= 0 {
		panic(fmt.Sprintf("scenario: trace period %v not positive", period))
	}
	if n.running {
		panic("scenario: Trace after Run started")
	}
	samples := int(n.End.Nanos()/period.Nanos()) + 1
	tr := &Trace{
		Names: make([]string, len(probes)),
		T:     make([]sim.Time, 0, samples),
		V:     make([][]float64, len(probes)),

		net:    n,
		period: period,
		probes: probes,
	}
	for i, p := range probes {
		tr.Names[i] = p.Name
		tr.V[i] = make([]float64, 0, samples)
	}
	n.traces = append(n.traces, tr)
	return tr
}

// traceTick takes one sample of a Trace and re-arms while the next sample
// falls inside the run (sim.Handler).
type traceTick Trace

func (tk *traceTick) RunEvent(now sim.Time) {
	tk.T = append(tk.T, now)
	for i, p := range tk.probes {
		tk.V[i] = append(tk.V[i], p.Fn())
	}
	if now+tk.period <= tk.net.End {
		tk.net.Sim.ScheduleAfter(tk.period, tk)
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
// Besides the report, the run leaves each flow's exact per-path byte counts
// for the window in Flow.Window, for callers that do their own arithmetic,
// and fills the series of every Trace registered before it started.
//
// Flows added while the simulation runs (AddFlow from an event, AddArrivals)
// are sampled, reported and counted like the rest; one born after the
// warm-up closed has its whole delivery inside the window.
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
		return nil, fmt.Errorf("scenario %q: Run called again: a Net runs once", n.Name)
	}
	n.running = true
	defer n.Sim.ReleaseRand()
	defer netem.PoolFor(n.Sim).Release()
	r := &RunReport{Name: n.Name, Seed: n.Seed}
	m := newMonitor(n, r)

	// Every periodic observation is armed here: the traces first, in
	// registration order, then the window snapshot and the monitor.
	for _, tr := range n.traces {
		n.Sim.Schedule(0, (*traceTick)(tr))
	}
	n.Sim.Schedule(n.Warmup, (*windowOpen)(m))
	m.RunEvent(0) // first sample at t=0, then every samplePeriod
	if err := advanceUntil(ctx, n.Sim, 0, n.End); err != nil {
		return nil, fmt.Errorf("scenario %q: run canceled: %w", n.Name, err)
	}

	secs := n.durationSec
	r.Flows = make([]FlowReport, 0, len(n.Flows))
	r.Queues = make([]QueueReport, 0, len(n.Links))
	for _, f := range n.Flows {
		fr := FlowReport{
			Name:      f.Name,
			Algorithm: f.Algorithm,
			SentPkts:  f.SentPkts(),
			PathMbps:  make([]float64, 0, len(f.Sinks)),
		}
		if f.Window == nil { // born after the snapshot: the base is zero
			f.Window = make([]int64, len(f.Sinks))
		}
		for pi, k := range f.Sinks {
			f.Window[pi] = k.GoodputBytes() - f.Window[pi]
			mbps := stats.Mbps(f.Window[pi], secs)
			fr.PathMbps = append(fr.PathMbps, mbps)
			fr.GoodputMbps += mbps
			fr.GoodputBytes += k.GoodputBytes()
		}
		for _, s := range f.Srcs {
			fr.Timeouts += s.Stats().Timeouts
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
				i, w.SentBytes, n.durationSec, capBytes)
		}
	}
}

// windowCapBytes integrates link l's rate profile — the rate it was built
// with plus every timeline rate setpoint — over the measured window,
// reporting the byte bound and the number of in-window rate transitions.
func (n *Net) windowCapBytes(l int) (capBytes float64, transitions int) {
	from := n.warmupSec
	to := n.warmupSec + n.durationSec
	rate := n.Links[l].Spec.RateMbps
	t := from
	for i := range n.timeline {
		ev := n.timeline[i].Link
		if ev == nil || ev.Link != l || ev.RateMbps <= 0 {
			continue
		}
		at := n.timeline[i].AtSec
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
