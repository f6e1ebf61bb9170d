// Package netem provides the network elements the simulations run over:
// packets, propagation-delay pipes, rate-limited queues (DropTail and RED
// with the paper's parameters), and source routes. It is the Go equivalent
// of htsim's Pipe/Queue/EventList core, which the paper uses for its
// data-center experiments, and of the Click-emulated testbed links used in
// Scenarios A, B and C.
package netem

import (
	"fmt"
	"math"

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

// maxRouteHops bounds a route's length: a packet's hop cursor is a uint16.
const maxRouteHops = math.MaxUint16

// NewRoute builds a route over the given hops, which it keeps: the caller
// hands the slice over. It panics past 65 535 hops.
func NewRoute(hops ...Node) *Route {
	if len(hops) > maxRouteHops {
		panic(fmt.Sprintf("netem: route of %d hops, more than %d", len(hops), maxRouteHops))
	}
	return &Route{hops: hops}
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
//
// A packet that waits — in a pipe, in a queue's backlog, or on its pool's
// free list — is linked there through its own next field (pktList), so no
// waiting place keeps an array of pointers, and it is on one such list at a
// time. A Packet is 72 bytes on 64-bit platforms (TestPacketLayout): the
// fields every forwarding hop touches come first, Size and the flags share
// one 8-byte word, and nothing is padding.
type Packet struct {
	route *Route
	// next links the packet into the list it waits on; nil otherwise.
	next *Packet
	// dueAt and dueSeq are the delivery key the pipe the packet is
	// crossing reserved at admission; stale once it has left the pipe.
	dueAt  sim.Time
	dueSeq uint64
	// Size is the wire size in bytes, including an idealized header: at
	// most MSS, and NewData and DataPacket refuse more than 65 535.
	Size uint16
	hop  uint16
	// Ack marks pure acknowledgments. A pooled packet is made as one kind
	// or the other and Free files it by this field: do not flip it.
	Ack bool
	// Retx marks retransmitted data (Karn's rule: no RTT sample from these).
	Retx   bool
	freed  bool
	listed bool // on a pktList: in a pipe, a queue or a free list

	// Seq is the sequence number of the first payload byte (data packets),
	// or the cumulative ACK point — the next byte expected — for ACKs.
	Seq int64
	// SentAt is a data segment's send time. An ACK carries the timestamp
	// of the data segment it answers here, echoed back to the source: an
	// ACK's own send time is never read, so a packet has one timestamp.
	SentAt sim.Time
	// sack is an ACK's SACK report for life; nil on data segments.
	sack *sackReport
	pool *PacketPool // nil for heap-allocated packets
}

// sackReport is an ACK's SACK storage: n blocks, each held as its two
// edges' offsets above the ACK's cumulative point Seq. As RFC 2018 carries
// 32-bit sequence numbers, an edge lies in (Seq, Seq + 2³²); every report a
// run builds does, since a receiver buffers only above its cumulative ACK
// and no window exceeds 2³⁰ bytes. It is 68 bytes, 4 of them n and padding.
type sackReport struct {
	n uint8
	b [MaxSackBlocks][2]uint32
}

// SackLen reports how many selective-acknowledgment blocks the packet
// carries: 0 on a data segment.
//
//simlint:hot
func (p *Packet) SackLen() int {
	if p.sack == nil {
		return 0
	}
	return int(p.sack.n)
}

// SackBlock returns an ACK's i-th SACK block, for i below SackLen: a range
// above the cumulative ACK point that the receiver holds buffered. The
// blocks ascend and are disjoint.
//
//simlint:hot
func (p *Packet) SackBlock(i int) Block {
	e := p.sack.b[:p.sack.n][i]
	return Block{Start: p.Seq + int64(e[0]), End: p.Seq + int64(e[1])}
}

// SetSack copies bs, at most MaxSackBlocks blocks, into the ACK's report.
// The blocks must be non-empty, ascend without overlapping and lie in
// (Seq, Seq + 2³²), the range a report's 32-bit edges cover; a block that
// does not, and a report set on a data segment (which has no storage for
// one), panic naming the ACK's seq.
//
//simlint:hot
func (p *Packet) SetSack(bs []Block) {
	if p.sack == nil || len(bs) > MaxSackBlocks {
		panic(fmt.Sprintf("netem: SACK report of %d blocks on packet (seq %d, ack %v)", len(bs), p.Seq, p.Ack))
	}
	lo := p.Seq
	for i, b := range bs {
		// b.End > p.Seq once the first three tests pass, so the
		// difference is exact in uint64.
		if b.Start <= p.Seq || b.Start < lo || b.End <= b.Start || uint64(b.End-p.Seq) > math.MaxUint32 {
			panic(fmt.Sprintf("netem: SACK block %d [%d, %d) on ACK (seq %d) is empty, out of order or outside (seq, seq + 2^32)", i, b.Start, b.End, p.Seq))
		}
		p.sack.b[i] = [2]uint32{uint32(b.Start - p.Seq), uint32(b.End - p.Seq)}
		lo = b.End
	}
	p.sack.n = uint8(len(bs))
}

// Block is a half-open byte range [Start, End): a SACK report's unit, and
// what a Ranges list (a sender's scoreboard, a receiver's reorder buffer, a
// stream's out-of-order data) holds and returns.
type Block struct {
	Start, End int64
}

// MaxSackBlocks bounds the per-ACK SACK report, as real TCP options do. It
// is the SACK storage every ACK carries, and the capacity a range list is
// born with on its first insert: a report never holds more, and the lists
// it is copied from (a receiver's reorder buffer, a sender's scoreboard, a
// stream's out-of-order data) rarely do.
const MaxSackBlocks = 8

// SetRoute readies p for transmission over r: its next SendOn goes to r's
// first hop.
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
	if p.route == nil || int(p.hop) >= len(p.route.hops) {
		panic(fmt.Sprintf("netem: packet (seq %d, ack %v) ran off its route", p.Seq, p.Ack))
	}
	next := p.route.hops[p.hop]
	p.hop++
	next.Recv(p)
}

// Free returns a pool-managed packet to its simulation's free list. The
// caller must be the packet's terminal owner and must not touch it again.
// Freeing a heap-allocated packet (DataPacket/AckPacket) is a no-op;
// double-freeing a pooled packet, or freeing one still waiting in a pipe or
// a queue, panics.
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
	if p.Ack {
		pl.acks.free.pushFront(p)
	} else {
		pl.data.free.pushFront(p)
	}
}

// PacketPool is a per-simulation packet pool. All protocol endpoints of one
// Sim share a pool (PoolFor), so in steady state every data segment and ACK
// is recycled instead of allocated. Data segments and ACKs recycle through
// separate free lists: a packet keeps its kind for life, so only ACKs ever
// own SACK storage. A free list is a LIFO pktList linked through the freed
// packets themselves, so the slabs are the only memory the pool holds. The
// pool is single-threaded, like the Sim that owns it.
type PacketPool struct {
	data, acks freeList
	debug      bool
}

// freeList holds the recycled packets of one kind, the not yet issued
// remainder of the newest slab they are carved from, and how many packets
// its slabs hold in all.
type freeList struct {
	free   pktList
	slab   []Packet
	carved int
}

// slabPackets is how many packets one pool miss allocates together. Short
// runs dominate the population workloads and keep a few dozen packets of
// each kind alive; measured there, 16 against 32 and 64 costs 2-4 % more
// allocations and saves 4-12 % of a scenario's bytes, and a long bulk run
// does not care (under 6 % of its allocations at any of the three).
const slabPackets = 16

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
		p := new(PacketPool)
		s.SetAux(p)
		return p
	default:
		panic(fmt.Sprintf("netem: Sim.Aux holds foreign state (%T); the slot is reserved for the packet pool", v))
	}
}

// SetDebug toggles the use-after-free guard: freed packets are poisoned so
// stale readers fail loudly (their free-list link is kept). Costs a little
// per Free; meant for tests.
func (pl *PacketPool) SetDebug(on bool) { pl.debug = on }

// FreeCount reports how many packets of both kinds are waiting for reuse
// (diagnostics and tests).
func (pl *PacketPool) FreeCount() int { return pl.data.free.n + pl.acks.free.n }

// Carved reports how many data segments and how many ACKs the pool has
// carved slabs for: the run's high-water mark of packets alive at once, per
// kind rounded up to a slab, and all the per-packet memory the run holds.
// The kinds are apart because an ACK costs more: its SACK report rides in
// its slab beside it.
func (pl *PacketPool) Carved() (data, acks int) { return pl.data.carved, pl.acks.carved }

// get pops a recycled packet of the wanted kind, or carves one from the
// kind's slab. What comes back still holds its previous life's fields,
// except that pool, Ack and the SACK storage are the packet's for life;
// NewData and NewAck overwrite everything else.
//
//simlint:hot
func (pl *PacketPool) get(ack bool) *Packet {
	l := &pl.data
	if ack {
		l = &pl.acks
	}
	if l.free.n > 0 {
		p := l.free.pop()
		p.freed = false
		return p
	}
	if len(l.slab) == 0 {
		pl.refill(l, ack)
	}
	p := &l.slab[0]
	l.slab = l.slab[1:]
	return p
}

// dataSlab is a slab of data segments: 1 152 bytes, in the allocator's
// 1 280-byte size class once its 8-byte header is added.
type dataSlab [slabPackets]Packet

// ackSlab is a slab of ACKs with the SACK reports they keep for life:
// 2 240 bytes, in the 2 304-byte size class with its header.
type ackSlab struct {
	pkts [slabPackets]Packet
	sack [slabPackets]sackReport
}

// refill allocates l's next slab.
func (pl *PacketPool) refill(l *freeList, ack bool) {
	if ack {
		//simlint:ignore hotpathalloc amortised growth, as for data below; the SACK storage is allocated here once and never again, because a report never outgrows MaxSackBlocks
		s := new(ackSlab)
		for i := range s.pkts {
			s.pkts[i].Ack = true
			s.pkts[i].sack = &s.sack[i]
		}
		l.slab = s.pkts[:]
	} else {
		//simlint:ignore hotpathalloc amortised growth: one slab per slabPackets misses, and none once the pool holds the run's high-water mark of packets in flight
		l.slab = new(dataSlab)[:]
	}
	for i := range l.slab {
		l.slab[i].pool = pl
	}
	l.carved += slabPackets
}

// NewData builds a pool-managed data segment of size bytes, ready for
// transmission over route; a size above 65 535 panics. Its first argument
// is ignored: a packet carries no flow ID. The benchmark's transit rig
// (bench/rigs.go) still passes one.
func (pl *PacketPool) NewData(_ int, seq int64, size int, now sim.Time, route *Route) *Packet {
	p := pl.get(false)
	p.Seq = seq
	p.Size = segSize(seq, size)
	p.Retx = false
	p.SentAt = now
	p.SetRoute(route)
	return p
}

// NewAck builds a pool-managed pure ACK carrying cumulative ack point
// ackSeq and echoing, in SentAt, the timestamp of the data segment it
// answers. Its SACK report is empty, with room for MaxSackBlocks.
func (pl *PacketPool) NewAck(ackSeq int64, echo sim.Time, route *Route) *Packet {
	p := pl.get(true)
	p.Seq = ackSeq
	p.Size = AckSize
	p.Retx = false
	p.SentAt = echo
	p.sack.n = 0
	p.SetRoute(route)
	return p
}

// segSize is size as a Packet's Size; above 65 535 it panics.
func segSize(seq int64, size int) uint16 {
	if uint(size) > math.MaxUint16 {
		panic(fmt.Sprintf("netem: data segment (seq %d) of %d bytes, more than %d", seq, size, math.MaxUint16))
	}
	return uint16(size)
}

// DataPacket builds a data segment of size bytes; above 65 535 it panics.
func DataPacket(seq int64, size int, now sim.Time, route *Route) *Packet {
	p := &Packet{Seq: seq, Size: segSize(seq, size), SentAt: now}
	p.SetRoute(route)
	return p
}

// AckPacket builds a pure ACK carrying cumulative ack point ackSeq and
// echoing, in SentAt, the data segment's timestamp, with room for a SACK
// report.
func AckPacket(ackSeq int64, echo sim.Time, route *Route) *Packet {
	p := &Packet{Seq: ackSeq, Size: AckSize, Ack: true, SentAt: echo, sack: new(sackReport)}
	p.SetRoute(route)
	return p
}
