// Package netem provides the network elements the simulations run over:
// packets, propagation-delay pipes, rate-limited queues (DropTail and RED
// with the paper's parameters), and source routes. It is the Go equivalent
// of htsim's Pipe/Queue/EventList core, which the paper uses for its
// data-center experiments, and of the Click-emulated testbed links used in
// Scenarios A, B and C.
package netem

import (
	"fmt"

	"mptcpsim/internal/sim"
)

// MSS is the maximum segment size used throughout the paper's experiments
// (1500-byte packets, §III and Appendix B).
const MSS = 1500

// AckSize is the wire size of a pure ACK segment.
const AckSize = 40

// Node consumes packets. Queues, pipes and protocol sinks are Nodes.
type Node interface {
	Recv(p *Packet)
}

// Route is an ordered list of network elements a packet traverses, ending at
// the protocol endpoint (sink for data, source for ACKs). Routes are built
// once by the topology and shared by all packets of a flow, so they must not
// be mutated after use begins.
type Route struct {
	hops []Node
}

// NewRoute builds a route over the given hops.
func NewRoute(hops ...Node) *Route {
	return &Route{hops: hops}
}

// Append returns a new route with extra hops appended; the receiver is not
// modified. A nil receiver acts as an empty route.
func (r *Route) Append(hops ...Node) *Route {
	var base []Node
	if r != nil {
		base = r.hops
	}
	n := make([]Node, 0, len(base)+len(hops))
	n = append(n, base...)
	n = append(n, hops...)
	return &Route{hops: n}
}

// Len reports the number of hops.
func (r *Route) Len() int {
	if r == nil {
		return 0
	}
	return len(r.hops)
}

// Packet is a simulated segment. Packets are passed by pointer along their
// route; ownership transfers with each Recv call. Pool-managed packets
// (PacketPool.NewData/NewAck) have an explicit lifecycle: the terminal owner
// — the protocol endpoint that consumed it, the queue that dropped it, or a
// non-retaining Collector — calls Free to recycle it. Packets built with the
// plain DataPacket/AckPacket constructors are heap-allocated and Free is a
// no-op, so tests can keep inspecting them after delivery.
type Packet struct {
	// Seq is the sequence number of the first payload byte (data packets),
	// or the cumulative ACK point — the next byte expected — for ACKs.
	Seq int64
	// Size is the wire size in bytes, including an idealized header.
	Size int
	// Ack marks pure acknowledgments.
	Ack bool
	// Retx marks retransmitted data (Karn's rule: no RTT sample from these).
	Retx bool
	// SentAt is the source timestamp; ACKs echo it back in EchoTS.
	SentAt sim.Time
	// EchoTS is the echoed data-packet timestamp on an ACK.
	EchoTS sim.Time
	// FlowID identifies the (sub)flow, for tracing and debugging.
	FlowID int
	// Sack carries selective-acknowledgment blocks on ACKs: ranges above
	// the cumulative ACK point that the receiver holds buffered. Sorted
	// ascending and disjoint.
	Sack []Block

	route *Route
	hop   int
	pool  *PacketPool // nil for heap-allocated packets
	freed bool
}

// Block is a half-open byte range [Start, End) used for SACK reporting.
type Block struct {
	Start, End int64
}

// NewPacket readies p for transmission over route. It resets the hop cursor.
func (p *Packet) SetRoute(r *Route) {
	p.route = r
	p.hop = 0
}

// Route returns the packet's route (may be nil for locally delivered packets).
func (p *Packet) Route() *Route { return p.route }

// SendOn forwards the packet to the next hop of its route. It panics if the
// route is exhausted: protocol endpoints must be the final hop and must not
// forward further. Forwarding a freed packet panics: that is a lifecycle
// bug (use after Free).
//
//simlint:hot
func (p *Packet) SendOn() {
	if p.freed {
		panic(fmt.Sprintf("netem: use after free: packet (seq %d, ack %v)", p.Seq, p.Ack))
	}
	if p.route == nil || p.hop >= len(p.route.hops) {
		panic(fmt.Sprintf("netem: packet (seq %d, ack %v) ran off its route", p.Seq, p.Ack))
	}
	next := p.route.hops[p.hop]
	p.hop++
	next.Recv(p)
}

// Free returns a pool-managed packet to its simulation's free list. The
// caller must be the packet's terminal owner and must not touch it again.
// Freeing a heap-allocated packet (DataPacket/AckPacket) is a no-op;
// double-freeing a pooled packet panics.
//
//simlint:hot
func (p *Packet) Free() {
	pl := p.pool
	if pl == nil {
		return
	}
	if p.freed {
		panic(fmt.Sprintf("netem: double free of packet (seq %d, ack %v)", p.Seq, p.Ack))
	}
	p.freed = true
	if pl.debug {
		// Poison so a reader of a stale pointer trips loudly rather than
		// seeing plausible data: the sentinel sequence number is
		// recognizable in dumps and the nil route makes SendOn panic.
		p.Seq = -0x7EADBEEF
		p.route = nil
		p.hop = 0
	}
	pl.free = append(pl.free, p)
}

// PacketPool is a per-simulation packet free list. All protocol endpoints
// of one Sim share a pool (PoolFor), so in steady state every data segment
// and ACK is recycled instead of allocated. The pool is single-threaded,
// like the Sim that owns it.
type PacketPool struct {
	free  []*Packet
	debug bool
}

// PoolFor returns s's packet pool, creating and attaching it on first use.
// The pool is anchored on the Sim's Aux slot so every component of one
// simulation shares one free list. netem owns the slot: if something else
// occupied it, recycling and the double-free guards would silently vanish,
// so a foreign value panics instead.
func PoolFor(s *sim.Sim) *PacketPool {
	switch v := s.Aux().(type) {
	case *PacketPool:
		return v
	case nil:
		p := &PacketPool{}
		s.SetAux(p)
		return p
	default:
		panic(fmt.Sprintf("netem: Sim.Aux holds foreign state (%T); the slot is reserved for the packet pool", v))
	}
}

// SetDebug toggles the use-after-free guard: freed packets are poisoned so
// stale readers fail loudly. Costs a little per Free; meant for tests.
func (pl *PacketPool) SetDebug(on bool) { pl.debug = on }

// FreeCount reports the current free-list size (diagnostics and tests).
func (pl *PacketPool) FreeCount() int { return len(pl.free) }

// get pops a recycled packet, fully reset, or allocates a fresh one. The
// Sack capacity survives recycling so ACK reports reuse their backing
// arrays.
func (pl *PacketPool) get() *Packet {
	n := len(pl.free)
	if n == 0 {
		return &Packet{pool: pl}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	sack := p.Sack[:0]
	*p = Packet{Sack: sack, pool: pl}
	return p
}

// NewData builds a pool-managed data segment of size bytes for the given
// flow, ready for transmission over route.
func (pl *PacketPool) NewData(flowID int, seq int64, size int, now sim.Time, route *Route) *Packet {
	p := pl.get()
	p.Seq = seq
	p.Size = size
	p.FlowID = flowID
	p.SentAt = now
	p.SetRoute(route)
	return p
}

// NewAck builds a pool-managed pure ACK carrying cumulative ack point
// ackSeq and echoing the data packet's timestamp.
func (pl *PacketPool) NewAck(flowID int, ackSeq int64, echo sim.Time, now sim.Time, route *Route) *Packet {
	p := pl.get()
	p.Seq = ackSeq
	p.Size = AckSize
	p.Ack = true
	p.FlowID = flowID
	p.SentAt = now
	p.EchoTS = echo
	p.SetRoute(route)
	return p
}

// DataPacket builds a data segment of size bytes for the given flow.
func DataPacket(flowID int, seq int64, size int, now sim.Time, route *Route) *Packet {
	p := &Packet{Seq: seq, Size: size, FlowID: flowID, SentAt: now}
	p.SetRoute(route)
	return p
}

// AckPacket builds a pure ACK carrying cumulative ack point ackSeq and
// echoing the data packet's timestamp.
func AckPacket(flowID int, ackSeq int64, echo sim.Time, now sim.Time, route *Route) *Packet {
	p := &Packet{Seq: ackSeq, Size: AckSize, Ack: true, FlowID: flowID, SentAt: now, EchoTS: echo}
	p.SetRoute(route)
	return p
}
