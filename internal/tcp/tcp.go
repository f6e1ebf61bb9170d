// Package tcp implements a window-based TCP Reno/NewReno sender and receiver
// on top of the netem substrate: slow start, congestion avoidance, fast
// retransmit / fast recovery, retransmission timeouts with exponential
// backoff, and Jacobson/Karels RTT estimation with Karn's rule.
//
// The congestion-avoidance increase and the loss notification are exposed
// through a Hook so that internal/core can couple the windows of MPTCP
// subflows (LIA, OLIA, ...). With a nil Hook the sender is plain Reno — the
// "regular TCP user" of the paper.
//
// The model matches htsim's TcpSrc/TcpSink, the simulator used for the
// paper's data-center evaluation: bulk (or fixed-size) transfers, cumulative
// ACKs (one per received segment), no SACK, byte-counting windows kept as
// float64 multiples of MSS.
package tcp

import (
	"fmt"
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Hook observes congestion events of one flow and supplies the
// congestion-avoidance window increase. Implementations couple subflows.
type Hook interface {
	// OnAck is called for every new cumulative ACK covering n bytes.
	// If inCA is true, the return value — in packets (MSS units) — is added
	// to the congestion window; in slow start the return value is ignored.
	OnAck(n int, inCA bool) float64
	// OnLoss is called once per window-halving event (entering fast
	// recovery, or a retransmission timeout).
	OnLoss()
}

// WindowReducer is an optional extension of Hook: on a fast-recovery loss
// event the sender sets ssthresh to ReduceTo(cwnd) (bytes) instead of the
// default cwnd/2. The ε=0 fully-coupled baseline uses this to apply its
// w_total/2 decrease.
type WindowReducer interface {
	ReduceTo(cwndBytes float64) float64
}

// Config holds what a scenario varies per flow. The zero value is a
// long-lived, uncapped sender.
type Config struct {
	FlowBytes   int64   // bytes to transfer; 0 means unbounded (long-lived)
	MaxCwndPkts float64 // cap on cwnd (models rwnd); 0 means unlimited
	// NoIncreaseCap disables the per-ACK cap that keeps a coupled hook from
	// growing the window faster than Reno (one packet per acked packet).
	// Exists only for the ablation study; production configs keep the cap
	// (RFC 6356 goal 2).
	NoIncreaseCap bool
}

// The sender's fixed parameters. Every segment is netem.MSS bytes, except
// a finite flow's last.
const (
	initCwndPkts     = 2       // initial window
	initSsthreshPkts = 1 << 20 // initial slow-start threshold: "infinite"
	minSsthreshPkts  = 2       // ssthresh floor on halving; 1 on a multipath subflow
	initRTO          = sim.Second
	minRTO           = 200 * sim.Millisecond // Linux
	maxRTO           = 60 * sim.Second
)

// Stats aggregates sender-side statistics.
type Stats struct {
	SentPkts    int64
	RetxPkts    int64
	Timeouts    int64
	FastRecover int64 // fast-recovery episodes
	AckedBytes  int64 // cumulative-ACK progress (goodput at the sender)
}

// Src is a TCP sender. It is a netem.Node: the reverse route delivers ACKs
// to it. Create with NewSrc, connect with a Sink, then Start.
//
// Hot-path scheduling is closure-free: Src implements sim.Handler for its
// RTO timer, and small embedded handler structs cover flow start and the
// stall callback, so a sender schedules without allocating.
type Src struct {
	sim  *sim.Sim
	pool *netem.PacketPool
	cfg  Config
	name string

	fwd  *netem.Route // data route, ending at the Sink
	hook Hook

	// Window state, in bytes (float64 to carry fractional per-ACK increases),
	// and the halving floor, in packets.
	cwnd        float64
	ssthresh    float64
	minSsthresh float64

	highestSent int64 // next byte to send
	lastAcked   int64
	dupAcks     int
	inRecovery  bool
	recoverSeq  int64 // recovery ends when cumulative ACK passes this

	// RTT estimation (Jacobson/Karels), in ns.
	srtt, rttvar float64
	rttSeen      bool
	rtoBackoff   int

	rtoTimer sim.Timer
	startH   startHandler
	stallH   stallHandler

	started  bool
	done     bool
	paused   bool
	frozen   bool
	startAt  sim.Time
	doneAt   sim.Time
	stats    Stats
	retxMark int64 // bytes below this are retransmissions when resent

	// SACK scoreboard: disjoint, ascending ranges above lastAcked that the
	// receiver reported buffered. retxNext is the retransmission cursor for
	// the current recovery episode; recAcks counts ACKs during recovery for
	// rate-halving (one (re)transmission per two ACKs, PRR-style).
	scoreboard netem.Ranges
	retxNext   int64
	recAcks    int

	// OnComplete fires when a finite flow is fully acknowledged.
	OnComplete func(src *Src)

	// OnStalled, if set, turns the source into a pull-driven stream
	// segment: whenever the sender runs out of assigned bytes (FlowBytes)
	// it requests more via this callback (delivered through a zero-delay
	// event to avoid reentrancy), and it never self-completes — the layer
	// above (mptcp.Stream) owns completion.
	OnStalled func(src *Src)
	stalled   bool
}

// startHandler and stallHandler give Src extra sim.Handler identities (a
// type can implement RunEvent only once); they are embedded by value so
// scheduling &t.startH allocates nothing.
type startHandler struct{ t *Src }

func (h *startHandler) RunEvent(now sim.Time) {
	h.t.started = true
	h.t.sendMore()
}

type stallHandler struct{ t *Src }

func (h *stallHandler) RunEvent(now sim.Time) {
	t := h.t
	if t.stalled && t.OnStalled != nil && !t.done {
		t.OnStalled(t)
	}
}

// NewSrc builds a sender with the given configuration. Its second argument
// is ignored: a sender has no flow ID. The benchmark's rigs (bench/rigs.go)
// still pass one.
func NewSrc(s *sim.Sim, _ int, name string, cfg Config) *Src {
	src := &Src{
		sim:         s,
		pool:        netem.PoolFor(s),
		cfg:         cfg,
		name:        name,
		cwnd:        initCwndPkts * netem.MSS,
		ssthresh:    initSsthreshPkts * netem.MSS,
		minSsthresh: minSsthreshPkts,
	}
	src.startH.t = src
	src.stallH.t = src
	src.scoreboard.Bind(src.pool)
	return src
}

// SetRoute installs the forward route, which must end at this flow's Sink.
func (t *Src) SetRoute(r *netem.Route) { t.fwd = r }

// SetHook installs a coupled congestion controller hook. Must be called
// before Start.
func (t *Src) SetHook(h Hook) { t.hook = h }

// Name identifies the flow in traces.
func (t *Src) Name() string { return t.name }

// CwndPkts reports the congestion window in packets.
func (t *Src) CwndPkts() float64 { return t.cwnd / netem.MSS }

// EffCwndPkts reports the window the sender may actually fill, in packets:
// CwndPkts capped by Config.MaxCwndPkts.
func (t *Src) EffCwndPkts() float64 { return t.effCwnd() / netem.MSS }

// SRTT reports the smoothed RTT estimate in seconds (0 until first sample).
func (t *Src) SRTT() float64 { return t.srtt / sim.Second.Nanos() }

// Stats returns a copy of the sender statistics.
func (t *Src) Stats() Stats { return t.stats }

// AckedBytes reports cumulative acknowledged bytes.
func (t *Src) AckedBytes() int64 { return t.lastAcked }

// Done reports whether a finite flow has completed.
func (t *Src) Done() bool { return t.done }

// CompletionTime returns the flow duration, valid once Done.
func (t *Src) CompletionTime() sim.Time { return t.doneAt - t.startAt }

// ConfigureMultipath applies the paper's subflow settings (§IV-B): when a
// connection has several paths, each subflow starts with ssthresh = 1 MSS
// (entering congestion avoidance immediately, to avoid blasting congested
// paths), initial window 1 MSS, and a halving floor of 1 MSS so a window can
// sit at one packet on a bad path. Call before Start.
func (t *Src) ConfigureMultipath() {
	t.ssthresh = netem.MSS
	t.cwnd = netem.MSS
	t.minSsthresh = 1
}

// Start begins transmission at the given absolute virtual time.
func (t *Src) Start(at sim.Time) {
	if t.fwd == nil {
		panic(fmt.Sprintf("tcp: %s started without a route", t.name))
	}
	t.startAt = at
	t.sim.Schedule(at, &t.startH, sim.KindFlow)
}

// flight is the number of unacknowledged bytes in the network.
func (t *Src) flight() int64 { return t.highestSent - t.lastAcked }

// InFlightBytes reports the unacknowledged bytes in the network — the state
// subflow schedulers compare against the congestion window.
func (t *Src) InFlightBytes() int64 { return t.flight() }

// effCwnd applies the receive-window cap.
func (t *Src) effCwnd() float64 {
	if t.cfg.MaxCwndPkts > 0 {
		return math.Min(t.cwnd, t.cfg.MaxCwndPkts*netem.MSS)
	}
	return t.cwnd
}

// Pause stops the transmission of new segments; in-flight data still drains
// and loss recovery continues. Used by the bad-path suspension extension
// (the paper's §VII suggestion of discarding bad paths from the path set).
func (t *Src) Pause() { t.paused = true }

// Resume re-enables transmission after Pause.
func (t *Src) Resume() {
	if !t.paused {
		return
	}
	t.paused = false
	t.sendMore()
}

// Freeze takes the sender administratively down (a path flap): new
// transmissions and recovery retransmissions stop, and the RTO timer is
// disarmed so an outage triggers neither exponential backoff nor a loss
// storm into the coupled controller. ACKs for data already in flight are
// still processed — the wire drains normally. Freeze is independent of
// Pause (probe control), so a flap cannot clobber a suspension decision.
//
//simlint:hot
func (t *Src) Freeze() {
	if t.frozen {
		return
	}
	t.frozen = true
	t.sim.Cancel(t.rtoTimer)
}

// Unfreeze brings the sender back up after Freeze and resumes transmission;
// sendMore re-arms the RTO whenever data is outstanding, so anything lost
// during the outage is recovered one timeout after the path returns.
//
//simlint:hot
func (t *Src) Unfreeze() {
	if !t.frozen {
		return
	}
	t.frozen = false
	if t.started && !t.done {
		t.sendMore()
	}
}

// Frozen reports whether the sender is administratively down.
func (t *Src) Frozen() bool { return t.frozen }

// sendMore transmits as many new segments as the window allows.
func (t *Src) sendMore() {
	if !t.started || t.done || t.paused || t.frozen {
		return
	}
	const mss = int64(netem.MSS)
	for {
		// Skip ranges the receiver already holds (post-RTO go-back-N must
		// not resend SACKed data: that would trigger dupACK storms).
		for i := 0; i < t.scoreboard.Len(); i++ {
			if b := t.scoreboard.Block(i); t.highestSent >= b.Start && t.highestSent < b.End {
				t.highestSent = b.End
			}
		}
		if t.cfg.FlowBytes > 0 && t.highestSent >= t.cfg.FlowBytes {
			t.requestData()
			break
		}
		if float64(t.flight()+mss) > t.effCwnd() {
			break
		}
		size := mss
		if t.cfg.FlowBytes > 0 && t.highestSent+size > t.cfg.FlowBytes {
			size = t.cfg.FlowBytes - t.highestSent
		}
		t.transmit(t.highestSent, int(size), t.highestSent < t.retxMark)
		t.highestSent += size
	}
	t.armRTO()
}

// segSizeAt bounds a segment starting at seq by the flow length.
func (t *Src) segSizeAt(seq int64) int {
	if t.cfg.FlowBytes > 0 && seq+netem.MSS > t.cfg.FlowBytes {
		return int(t.cfg.FlowBytes - seq)
	}
	return netem.MSS
}

// requestData asks the stream layer for more bytes, at most once per stall.
// The request is delivered through a zero-delay event to avoid reentrancy.
func (t *Src) requestData() {
	if t.OnStalled == nil || t.stalled {
		return
	}
	t.stalled = true
	t.sim.ScheduleAfter(0, &t.stallH, sim.KindFlow)
}

// ExtendFlow assigns n more bytes to a pull-driven source (see OnStalled)
// and resumes transmission.
func (t *Src) ExtendFlow(n int64) {
	if n <= 0 {
		panic("tcp: ExtendFlow needs positive bytes")
	}
	if t.cfg.FlowBytes <= 0 {
		panic("tcp: ExtendFlow on an unbounded flow")
	}
	t.cfg.FlowBytes += n
	t.stalled = false
	if t.started && !t.done {
		t.sendMore()
	}
}

// AssignedBytes reports the current end of assigned data (FlowBytes).
func (t *Src) AssignedBytes() int64 { return t.cfg.FlowBytes }

// SetFlowBytes sets the assigned-data limit. Only valid before Start;
// streams use it to seed each subflow's first chunk.
func (t *Src) SetFlowBytes(n int64) {
	if t.started {
		panic("tcp: SetFlowBytes after Start")
	}
	if n <= 0 {
		panic("tcp: SetFlowBytes needs positive bytes")
	}
	t.cfg.FlowBytes = n
}

// transmit sends one segment, allocated from the simulation's packet pool;
// ownership passes to the route (the sink consumes and frees it, or a drop
// site does).
func (t *Src) transmit(seq int64, size int, isRetx bool) {
	p := t.pool.NewData(0, seq, size, t.sim.Now(), t.fwd)
	p.Retx = isRetx
	t.stats.SentPkts++
	if isRetx {
		t.stats.RetxPkts++
	}
	p.SendOn()
}

// RunEvent fires the retransmission timeout (sim.Handler).
func (t *Src) RunEvent(now sim.Time) { t.onRTO() }

// armRTO (re)schedules the retransmission timer if data is outstanding.
// Frozen senders keep the timer disarmed: an administratively down path
// must not accumulate timeouts and backoff while it cannot transmit.
func (t *Src) armRTO() {
	if t.flight() <= 0 || t.done || t.frozen {
		t.sim.Cancel(t.rtoTimer)
		return
	}
	deadline := t.sim.Now() + t.rto()
	if t.rtoTimer.Valid() {
		t.sim.Reschedule(t.rtoTimer, deadline)
	} else {
		t.rtoTimer = t.sim.ScheduleTimer(deadline, t, sim.KindRTO)
	}
}

// rto computes the current retransmission timeout with backoff.
func (t *Src) rto() sim.Time {
	base := initRTO // RFC 6298, until the first sample
	if t.rttSeen {
		base = sim.FromNanos(t.srtt + 4*t.rttvar)
	}
	if base < minRTO {
		base = minRTO
	}
	for i := 0; i < t.rtoBackoff; i++ {
		base *= 2
		if base >= maxRTO {
			return maxRTO
		}
	}
	if base > maxRTO {
		base = maxRTO
	}
	return base
}

// onRTO handles a retransmission timeout: multiplicative decrease to 1 MSS,
// slow start, go-back-N from the last cumulative ACK.
func (t *Src) onRTO() {
	if t.done || t.frozen || t.flight() <= 0 {
		return
	}
	t.stats.Timeouts++
	t.rtoBackoff++
	t.ssthresh = math.Max(t.cwnd/2, t.minSsthresh*netem.MSS)
	t.cwnd = netem.MSS
	t.inRecovery = false
	t.dupAcks = 0
	if t.hook != nil {
		t.hook.OnLoss()
	}
	// Go-back-N: everything unacknowledged is resent as the window reopens,
	// except ranges the receiver has SACKed (kept: our receiver never
	// reneges). Mark the region as retransmission territory.
	t.retxNext = t.lastAcked
	t.recAcks = 0
	t.retxMark = t.highestSent
	t.highestSent = t.lastAcked
	t.sendMore()
}

// Recv delivers an ACK to the sender (Src is the last hop of the reverse
// route). The sender is the ACK's terminal owner and frees it on return.
func (t *Src) Recv(p *netem.Packet) {
	if !p.Ack {
		panic(fmt.Sprintf("tcp: %s received non-ACK", t.name))
	}
	if t.done {
		p.Free()
		return
	}
	for i := range p.SackLen() {
		t.mergeBlock(p.SackBlock(i))
	}
	ackSeq := p.Seq
	switch {
	case ackSeq > t.lastAcked:
		t.newAck(ackSeq, p)
	case ackSeq == t.lastAcked && t.flight() > 0:
		t.dupAck()
	default:
		// Stale ACK: ignore.
	}
	p.Free()
}

// mergeBlock folds one block of the receiver's SACK report into the
// scoreboard, keeping it sorted, disjoint, and clipped to ranges above the
// cumulative ACK point.
//
//simlint:hot
func (t *Src) mergeBlock(b netem.Block) {
	if b.End <= t.lastAcked {
		return
	}
	if b.Start < t.lastAcked {
		b.Start = t.lastAcked
	}
	t.insertBlock(b)
}

// insertBlock adds one range to the scoreboard, merging overlaps.
//
//simlint:hot
func (t *Src) insertBlock(b netem.Block) {
	t.scoreboard.Insert(b)
}

// nextHole returns the lowest byte the receiver is known to be missing that
// we have not yet retransmitted this episode, or -1 if none is known.
func (t *Src) nextHole() int64 {
	cand := t.lastAcked
	if t.retxNext > cand {
		cand = t.retxNext
	}
	if t.scoreboard.Len() == 0 {
		// No SACK information: the only safe retransmission is the
		// cumulative ACK point itself, once.
		if t.inRecovery && cand == t.lastAcked && cand < t.recoverSeq {
			return cand
		}
		return -1
	}
	for i := 0; i < t.scoreboard.Len(); i++ {
		b := t.scoreboard.Block(i)
		if cand < b.Start {
			return cand
		}
		if b.End > cand {
			cand = b.End
		}
	}
	return -1
}

// sendOneRecovery transmits one segment during fast recovery: the next known
// hole if there is one, otherwise new data to keep the ACK clock running.
func (t *Src) sendOneRecovery() {
	if t.frozen {
		return
	}
	if h := t.nextHole(); h >= 0 {
		size := t.segSizeAt(h)
		if size > 0 {
			t.transmit(h, size, true)
			t.retxNext = h + int64(size)
			return
		}
	}
	if t.cfg.FlowBytes > 0 && t.highestSent >= t.cfg.FlowBytes {
		return
	}
	size := int64(t.segSizeAt(t.highestSent))
	t.transmit(t.highestSent, int(size), false)
	t.highestSent += size
}

// newAck processes cumulative-ACK progress.
func (t *Src) newAck(ackSeq int64, p *netem.Packet) {
	acked := ackSeq - t.lastAcked
	t.lastAcked = ackSeq
	t.stats.AckedBytes = ackSeq
	t.dupAcks = 0
	t.rtoBackoff = 0
	t.scoreboard.ClipFront(t.lastAcked) // what the cumulative ACK covers

	// RTT sample (Karn's rule: skip if the echoed segment was a retransmit).
	if !p.Retx {
		t.rttSample((t.sim.Now() - p.SentAt).Nanos())
	}

	if t.inRecovery {
		if ackSeq >= t.recoverSeq {
			// Full ACK: leave recovery at the halved window.
			t.inRecovery = false
			t.cwnd = math.Max(t.ssthresh, netem.MSS)
			t.retxNext = t.lastAcked
		} else {
			// Partial ACK: the retransmitted hole arrived; immediately
			// repair the next one and stay in recovery.
			t.sendOneRecovery()
			t.armRTO()
			return
		}
	} else {
		t.grow(int(acked))
	}

	if t.cfg.FlowBytes > 0 && t.lastAcked >= t.cfg.FlowBytes && t.OnStalled == nil {
		t.finish()
		return
	}
	t.sendMore()
}

// grow applies slow start or congestion avoidance for acked bytes.
func (t *Src) grow(acked int) {
	const mss = float64(netem.MSS)
	inCA := t.cwnd >= t.ssthresh
	var inc float64
	if t.hook != nil {
		inc = t.hook.OnAck(acked, inCA)
	} else if inCA {
		// Reno: one MSS per window per RTT. In packet units that is
		// ackedBytes/cwndBytes per ACK.
		inc = float64(acked) / t.cwnd
	}
	if inCA {
		// Cap at Reno aggressiveness: never grow (or shrink) faster than
		// one packet per acked packet. Negative increases are legitimate:
		// OLIA's α term slows, and may reverse, growth on max-window paths.
		if !t.cfg.NoIncreaseCap {
			maxInc := float64(acked) / mss
			if inc > maxInc {
				inc = maxInc
			}
			if inc < -maxInc {
				inc = -maxInc
			}
		}
		t.cwnd += inc * mss
	} else {
		// Slow start: exponential growth, capped at ssthresh overshoot.
		t.cwnd += float64(acked)
		if t.cwnd > t.ssthresh && t.hook != nil {
			t.cwnd = t.ssthresh
		}
	}
	if t.cwnd < mss {
		t.cwnd = mss
	}
}

// dupAck processes a duplicate acknowledgment. A frozen sender ignores
// duplicates entirely: the reordering signal is an artifact of the outage,
// and reacting would halve the window and notify the coupled controller for
// losses the flap already explains.
func (t *Src) dupAck() {
	if t.frozen {
		return
	}
	t.dupAcks++
	if t.inRecovery {
		// Rate halving: one (re)transmission per two ACKs keeps roughly
		// half the pre-loss window in flight through the episode.
		t.recAcks++
		if t.recAcks%2 == 0 {
			t.sendOneRecovery()
		}
		return
	}
	// Require three duplicates plus corroborating SACK evidence of a hole:
	// dupACKs caused by our own duplicate (spuriously retransmitted)
	// segments arrive while the receiver buffers nothing out of order, and
	// must not halve the window (real stacks use DSACK similarly).
	if t.dupAcks < 3 || t.scoreboard.Len() == 0 {
		return
	}
	// Enter fast recovery: halve once per episode (coupled algorithms are
	// notified) and repair the first hole.
	t.stats.FastRecover++
	if t.hook != nil {
		t.hook.OnLoss()
	}
	newWnd := t.cwnd / 2
	if r, ok := t.hook.(WindowReducer); ok {
		newWnd = r.ReduceTo(t.cwnd)
	}
	t.ssthresh = math.Max(newWnd, t.minSsthresh*netem.MSS)
	t.cwnd = math.Max(t.ssthresh, netem.MSS)
	t.inRecovery = true
	t.recoverSeq = t.highestSent
	t.recAcks = 0
	t.retxNext = t.lastAcked
	size := t.segSizeAt(t.lastAcked)
	t.transmit(t.lastAcked, size, true)
	t.retxNext = t.lastAcked + int64(size)
	t.armRTO()
}

// rttSample feeds one RTT measurement into the Jacobson/Karels estimator.
func (t *Src) rttSample(m float64) {
	if m <= 0 {
		return
	}
	if !t.rttSeen {
		t.rttSeen = true
		t.srtt = m
		t.rttvar = m / 2
		return
	}
	diff := t.srtt - m
	if diff < 0 {
		diff = -diff
	}
	t.rttvar = 0.75*t.rttvar + 0.25*diff
	t.srtt = 0.875*t.srtt + 0.125*m
}

// finish marks a finite flow complete. The RTO timer is released back to
// the kernel's event pool so high-churn short-flow workloads recycle
// timers instead of leaking one per flow.
func (t *Src) finish() {
	t.done = true
	t.doneAt = t.sim.Now()
	t.sim.Free(t.rtoTimer)
	t.rtoTimer = sim.Timer{}
	if t.OnComplete != nil {
		t.OnComplete(t)
	}
}

// Sink is the receiving endpoint: it reassembles the cumulative ACK point
// from possibly out-of-order segments and acknowledges every arrival, like
// htsim's TcpSink.
type Sink struct {
	sim  *sim.Sim
	pool *netem.PacketPool
	rev  *netem.Route // reverse route, ending at the Src

	cumAck int64 // next expected byte
	// ooo is the reorder buffer: the byte ranges held above cumAck, ascending,
	// disjoint and non-touching — which is already the SACK report.
	ooo   netem.Ranges
	bytes int64 // total goodput delivered in order

	recvPkts int64 // data segments taken in, duplicates included
	ackPkts  int64 // ACKs emitted

	// OnInOrder, if set, observes each cumulative-ACK advance (bytes newly
	// delivered in order). mptcp.Stream uses it for data-level reassembly.
	OnInOrder func(n int64)

	// Delayed-ACK state (RFC 1122/5681): at most every second full segment
	// is ACKed, with delAckTimeout bounding the delay. Out-of-order and
	// duplicate segments are ACKed immediately.
	delAck   bool
	unacked  int
	lastEcho sim.Time
	delAckTm sim.Timer
}

// delAckTimeout bounds how long a delayed ACK is held back (Linux's 40 ms).
const delAckTimeout = 40 * sim.Millisecond

// NewSink builds a receiver.
func NewSink(s *sim.Sim) *Sink {
	k := &Sink{sim: s, pool: netem.PoolFor(s)}
	k.ooo.Bind(k.pool)
	return k
}

// EnableDelayedAck turns on RFC 1122 delayed acknowledgments, held back at
// most 40 ms. Without it (the default, which is also htsim's behavior)
// every segment is ACKed.
func (k *Sink) EnableDelayedAck() { k.delAck = true }

// SetRoute installs the reverse (ACK) route, which must end at the Src.
func (k *Sink) SetRoute(r *netem.Route) { k.rev = r }

// CumAck reports the in-order delivery point (bytes).
func (k *Sink) CumAck() int64 { return k.cumAck }

// GoodputBytes reports bytes delivered in order.
func (k *Sink) GoodputBytes() int64 { return k.bytes }

// RecvPkts reports data segments received, duplicates included. Every one
// is answered by an ACK unless delayed ACKs are on.
func (k *Sink) RecvPkts() int64 { return k.recvPkts }

// AckPkts reports ACKs emitted.
func (k *Sink) AckPkts() int64 { return k.ackPkts }

// Recv ingests a data segment and emits a cumulative ACK. The sink is the
// segment's terminal owner and frees it on return.
//
//simlint:hot
func (k *Sink) Recv(p *netem.Packet) {
	if p.Ack {
		panic("tcp: sink received an ACK")
	}
	k.recvPkts++
	end := p.Seq + int64(p.Size)
	before := k.cumAck
	switch {
	case p.Seq <= k.cumAck && end > k.cumAck:
		k.bytes += end - k.cumAck
		k.cumAck = end
		k.drainOOO()
	case p.Seq > k.cumAck:
		k.insertOOO(p.Seq, end)
	default:
		// Fully duplicate segment: ACK again (generates dupACK at sender).
	}
	if k.OnInOrder != nil && k.cumAck > before {
		k.OnInOrder(k.cumAck - before)
	}
	k.lastEcho = p.SentAt
	inOrderAdvance := k.cumAck > before && k.ooo.Len() == 0
	if k.delAck && inOrderAdvance && !p.Retx {
		// Delayed ACK: hold back the first of every pair, bounded by the
		// timer. Everything irregular (OOO, duplicates, retransmitted
		// fills) is acknowledged immediately below.
		k.unacked++
		if k.unacked == 1 {
			if k.delAckTm.Valid() {
				k.sim.Reschedule(k.delAckTm, k.sim.Now()+delAckTimeout)
			} else {
				k.delAckTm = k.sim.ScheduleTimer(k.sim.Now()+delAckTimeout, k, sim.KindDelayedAck)
			}
			p.Free()
			return
		}
	}
	k.sendAck(p.SentAt, p.Retx)
	p.Free()
}

// RunEvent emits the held-back acknowledgment when the delayed-ACK timer
// expires (sim.Handler).
func (k *Sink) RunEvent(now sim.Time) {
	if k.unacked > 0 {
		k.sendAck(k.lastEcho, false)
	}
}

// sendAck emits a cumulative ACK with the current SACK report, copied into
// the pooled ACK's own SACK storage: the lowest netem.MaxSackBlocks
// buffered ranges, lowest first because the sender repairs holes in
// ascending order.
//
//simlint:hot
func (k *Sink) sendAck(echo sim.Time, retx bool) {
	k.unacked = 0
	k.ackPkts++
	k.sim.Cancel(k.delAckTm)
	ack := k.pool.NewAck(k.cumAck, echo, k.rev)
	ack.Retx = retx
	var report [netem.MaxSackBlocks]netem.Block
	ack.SetSack(k.ooo.Head(report[:]))
	ack.SendOn()
}

// insertOOO buffers the out-of-order bytes [seq, end).
//
//simlint:hot
func (k *Sink) insertOOO(seq, end int64) {
	k.ooo.Insert(netem.Block{Start: seq, End: end})
}

// drainOOO advances the cumulative ACK over the buffered ranges it has
// reached.
//
//simlint:hot
func (k *Sink) drainOOO() {
	i := 0
	for ; i < k.ooo.Len(); i++ {
		b := k.ooo.Block(i)
		if b.Start > k.cumAck {
			break
		}
		if b.End > k.cumAck {
			k.bytes += b.End - k.cumAck
			k.cumAck = b.End
		}
	}
	if i > 0 {
		k.ooo.Drop(i)
	}
}
