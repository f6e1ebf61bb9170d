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
	"sync"

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
// route; ownership transfers with each Recv call. Every packet comes from
// its simulation's pool (PoolFor, then PacketPool.NewData/NewAck) and lives
// one lifecycle: the terminal owner — the protocol endpoint that consumed
// it, the queue that dropped it, or a non-retaining Collector — calls Free
// to recycle it, and a packet freed, or handed back by Release, is
// poisoned, so touching it again panics.
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
	// most MSS, and NewData refuses more than 65 535.
	Size uint16
	hop  uint16
	// Ack marks pure acknowledgments. A packet is made as one kind
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
	pool *PacketPool
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

// Free returns the packet to its pool's free list, poisoned. The caller
// must be the packet's terminal owner and must not touch it again: a
// second Free panics as a double free, a SendOn as a use after free, and
// freeing a packet still waiting in a pipe or a queue panics too.
//
//simlint:hot
func (p *Packet) Free() {
	if p.freed {
		panic(fmt.Sprintf("netem: double free of packet (seq %d, ack %v)", p.Seq, p.Ack))
	}
	p.freed = true
	if p.Ack {
		p.pool.acks.free.pushFront(p)
	} else {
		p.pool.data.free.pushFront(p)
	}
	// Poisoned after the push, so a packet still waiting elsewhere panics
	// there under its own seq.
	p.poison()
}

// poisonSeq is the sequence number a pool stamps on every packet it takes
// back, through Free or Release: recognizable in dumps.
const poisonSeq = -0x7EADBEEF

// poison marks p dead so a reader of a stale pointer trips loudly rather
// than seeing plausible data: the sentinel sequence number shows in any
// message that names the packet, and the nil route makes SendOn panic.
func (p *Packet) poison() {
	p.Seq = poisonSeq
	p.route = nil
	p.hop = 0
}

// PacketPool is a per-simulation packet pool. All protocol endpoints of one
// Sim share a pool (PoolFor), so in steady state every data segment and ACK
// is recycled instead of allocated. Data segments and ACKs recycle through
// separate free lists: a packet keeps its kind for life, so only ACKs ever
// own SACK storage. A free list is a LIFO pktList linked through the freed
// packets themselves, and the slabs of each kind are chained through a link
// beside them, so the slabs are the only memory the pool holds. The range
// lists bound to the pool (Ranges.Bind) are chained through the lists. When
// the run is over, Release hands the slabs and the lists' arrays to the
// next run's pool and lists. The pool is single-threaded, like the Sim
// that owns it.
type PacketPool struct {
	data, acks freeList
	// dataSlabs and ackSlabs are the newest slab of each kind the pool
	// carved; each links to the one carved before it.
	dataSlabs *dataAlloc
	ackSlabs  *ackAlloc
	// ranges is the list bound last; each links to the one bound before.
	ranges   *Ranges
	released bool
}

// freeList holds the recycled packets of one kind, the not yet issued
// remainder of the newest slab they are carved from, and how many packets
// its slabs hold in all.
type freeList struct {
	free   pktList
	slab   []Packet
	carved int
}

// slabPackets is how many packets one pool miss carves together. Short
// runs dominate the population workloads and keep a few dozen packets of
// each kind alive. Measured there while every run allocated its own slabs,
// 16 against 32 and 64 cost 2-4 % more allocations and saved 4-12 % of a
// scenario's bytes, and a long bulk run did not care (under 6 % of its
// allocations at any of the three). Slabs now outlive their run (Release),
// so a scenario allocates one only past the slabs earlier runs handed
// back, and the size mostly sets how closely a pool's memory follows its
// run's peak; it has not been measured again.
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

// PoolStats is how many data segments and how many ACKs a pool has carved
// slabs for: the run's high-water mark of packets alive at once, per kind
// rounded up to a slab, and all the per-packet memory the run holds. The
// kinds are apart because an ACK costs more: its SACK report rides in its
// slab beside it.
type PoolStats struct{ Data, Acks int }

// Stats reports the pool's counts; Release leaves them alone.
func (pl *PacketPool) Stats() PoolStats { return PoolStats{pl.data.carved, pl.acks.carved} }

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

// dataSlab is a slab of data segments: 1 152 bytes.
type dataSlab [slabPackets]Packet

// ackSlab is a slab of ACKs with the SACK reports they keep for life:
// 2 240 bytes.
type ackSlab struct {
	pkts [slabPackets]Packet
	sack [slabPackets]sackReport
}

// dataAlloc and ackAlloc are what a pool allocates per slab: the slab, and
// the link to the slab of its kind the pool carved before it, which is how
// Release finds them all. The link is a pool's only bookkeeping, and its 8
// bytes leave both in their size class with the runtime's 8-byte malloc
// header: 1 160 bytes in the 1 280-byte class, 2 248 in the 2 304-byte one.
type (
	dataAlloc struct {
		dataSlab
		prev *dataAlloc
	}
	ackAlloc struct {
		ackSlab
		prev *ackAlloc
	}
)

// spareData and spareAcks hold the slabs finished runs handed back
// (Release), for any pool's refill to take before it allocates: a slab
// outlives its run, so a campaign allocates packet memory for its busiest
// scenario per worker, not for every scenario. They are process-wide
// because a run's next scenario may run on any goroutine.
var spareData, spareAcks sync.Pool

// refill gives l its next slab: a spare one if a finished run handed one
// back, else a new one. Either way its packets come out as a new slab's
// would: the pool's, of l's kind, each ACK pointing at its own empty SACK
// report, and nothing else set.
func (pl *PacketPool) refill(l *freeList, ack bool) {
	if pl.released {
		panic("netem: packet from a pool after Release: its slabs were handed back")
	}
	if ack {
		s, _ := spareAcks.Get().(*ackAlloc)
		if s == nil {
			//simlint:ignore hotpathalloc amortised growth, as for data below; the SACK storage is allocated here once and never again, because a report never outgrows MaxSackBlocks
			s = new(ackAlloc)
		}
		s.prev, pl.ackSlabs = pl.ackSlabs, s
		for i := range s.pkts {
			s.pkts[i] = Packet{Ack: true, sack: &s.sack[i], pool: pl}
			s.sack[i] = sackReport{}
		}
		l.slab = s.pkts[:]
	} else {
		s, _ := spareData.Get().(*dataAlloc)
		if s == nil {
			//simlint:ignore hotpathalloc amortised growth: one slab per slabPackets misses past the slabs finished runs handed back, and none once the pool holds the run's high-water mark of packets in flight
			s = new(dataAlloc)
		}
		s.prev, pl.dataSlabs = pl.dataSlabs, s
		for i := range s.dataSlab {
			s.dataSlab[i] = Packet{pool: pl}
		}
		l.slab = s.dataSlab[:]
	}
	l.carved += slabPackets
}

// Release hands every slab the pool carved to the spare slabs refill takes
// from, and the array of every range list bound to it to the spare arrays
// lists grow into, for the runs to come. The caller is done with every
// packet and list of the pool, wherever they are: scenario.Net.Run releases
// its pool when the run ends, however it ends, and nothing may read a
// packet through the finished network afterwards. A handed-back packet
// keeps its kind, its pool, and an ACK its SACK storage; everything else
// is cleared, so a spare slab holds no pointer into the finished network
// (the pool it points at holds nothing once released), and each packet is
// poisoned and marked freed, as Free leaves one, so a stale SendOn panics
// as a use after free and a stale Free as a double free. Every bound list
// is left empty, so a stale read sees no ranges. Stats still reports the
// run's high-water marks; taking a packet from the pool afterwards panics,
// as does an insert into one of its lists, and a second Release does
// nothing.
func (pl *PacketPool) Release() {
	for s := pl.dataSlabs; s != nil; {
		prev := s.prev
		retire(s.dataSlab[:])
		s.prev = nil
		spareData.Put(s)
		s = prev
	}
	for s := pl.ackSlabs; s != nil; {
		prev := s.prev
		retire(s.pkts[:])
		s.prev = nil
		spareAcks.Put(s)
		s = prev
	}
	for r := pl.ranges; r != nil; {
		next := r.next
		r.release()
		r = next
	}
	pl.dataSlabs, pl.ackSlabs, pl.ranges = nil, nil, nil
	pl.data.free, pl.data.slab = pktList{}, nil
	pl.acks.free, pl.acks.slab = pktList{}, nil
	pl.released = true
}

// retire clears the packets of a slab being handed back but for their kind,
// pool and SACK storage, which are theirs for life, then poisons each and
// marks it freed, so a stale SendOn or Free panics.
func retire(ps []Packet) {
	for i := range ps {
		p := &ps[i]
		*p = Packet{Ack: p.Ack, freed: true, sack: p.sack, pool: p.pool}
		p.poison()
	}
}

// NewData takes a data segment of size bytes from the pool, ready for
// transmission over route; a size above 65 535 panics. Its first argument
// is ignored: a packet carries no flow ID. The benchmark's transit rig
// (bench/rigs.go) still passes one.
func (pl *PacketPool) NewData(_ int, seq int64, size int, now sim.Time, route *Route) *Packet {
	if uint(size) > math.MaxUint16 {
		panic(fmt.Sprintf("netem: data segment (seq %d) of %d bytes, more than %d", seq, size, math.MaxUint16))
	}
	p := pl.get(false)
	p.Seq = seq
	p.Size = uint16(size)
	p.Retx = false
	p.SentAt = now
	p.SetRoute(route)
	return p
}

// NewAck takes a pure ACK from the pool, carrying cumulative ack point
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
