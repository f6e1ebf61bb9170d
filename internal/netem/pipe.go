package netem

import "mptcpsim/internal/sim"

// Pipe models fixed propagation delay: every packet entering the pipe leaves
// it exactly Delay later, order-preserving, with no capacity limit. It is the
// direct analogue of htsim's Pipe. Serialization (rate) is modeled by Queue,
// so a physical link is a Queue followed by a Pipe.
//
// Because the delay is constant, FIFO admission order is also delivery-time
// order, so the pipe keeps a single kernel timer plus a list of packets
// that carry their keys (each packet's dueAt and dueSeq, linked through its
// own next field) instead of one event per packet in flight. Each admission
// still reserves a kernel sequence number, so deliveries keep the exact
// (time, seq) FIFO tie-break they would have had with one event per packet
// — simulation results are bit-identical, and a pipe allocates nothing
// after its construction.
//
// A packet's delivery key depends only on its admission, not on which route
// it is on, so one pipe may carry every hop of equal constant delay in a
// network: merging several such pipes' lists gives every packet the key it
// had in its own pipe (FuzzPipeMerge). SetDelay is only for a pipe that
// carries one link: on a shared pipe it would retarget every hop of that
// delay, and its tail clamp would hold back hops the change is not about.
type Pipe struct {
	sim   *sim.Sim
	delay sim.Time
	name  string

	inFlight pktList   // FIFO, in admission (and so delivery) order
	last     sim.Time  // the newest admission's delivery time
	tm       sim.Timer // single pending delivery event (the head's)
}

// NewPipe returns a pipe with the given one-way propagation delay.
func NewPipe(s *sim.Sim, delay sim.Time, name string) *Pipe {
	if delay < 0 {
		panic("netem: negative pipe delay")
	}
	return &Pipe{sim: s, delay: delay, name: name}
}

// Delay reports the pipe's propagation delay.
func (pp *Pipe) Delay() sim.Time { return pp.delay }

// SetDelay retargets the propagation delay from now on. Packets already in
// flight keep the departure time computed at admission; later admissions use
// the new delay. Safe at any point mid-run: Recv clamps each admission to
// the current tail's departure so a delay decrease cannot reorder the pipe.
//
//simlint:hot
func (pp *Pipe) SetDelay(d sim.Time) {
	if d < 0 {
		panic("netem: negative pipe delay")
	}
	pp.delay = d
}

// Name identifies the pipe in traces.
func (pp *Pipe) Name() string { return pp.name }

// InFlight reports the number of packets currently crossing the pipe.
func (pp *Pipe) InFlight() int { return pp.inFlight.n }

// Recv admits the packet: it will be forwarded to the next hop delay later.
// If SetDelay shrank the delay while earlier packets are still in flight,
// the admission is clamped to the tail's departure time — the wire stays
// FIFO, exactly as a real propagation medium would behave. With a constant
// delay the clamp never fires, and it cannot fire on an empty pipe: the
// newest admission has then been delivered, at a time no later than now.
// No allocation.
func (pp *Pipe) Recv(p *Packet) {
	at := pp.sim.Now() + pp.delay
	if at < pp.last {
		at = pp.last
	}
	pp.last = at
	p.dueAt = at
	p.dueSeq = pp.sim.ReserveSeq()
	pp.inFlight.push(p)
	if pp.inFlight.n == 1 {
		pp.arm(p)
	}
}

// arm (re)schedules the pipe's single timer for h's key: h is the head.
func (pp *Pipe) arm(h *Packet) {
	if pp.tm.Valid() {
		pp.sim.RescheduleSeq(pp.tm, h.dueAt, h.dueSeq)
	} else {
		pp.tm = pp.sim.ScheduleTimerSeq(h.dueAt, h.dueSeq, pp, sim.KindPipe)
	}
}

// RunEvent delivers exactly the head (one logical event per packet, so
// Processed() counts match the one-event-per-packet design) and re-arms for
// the next packet. The list is updated before SendOn so reentrant
// admissions see a consistent pipe.
func (pp *Pipe) RunEvent(now sim.Time) {
	p := pp.inFlight.pop()
	if h := pp.inFlight.head; h != nil {
		pp.arm(h)
	}
	p.SendOn()
}
