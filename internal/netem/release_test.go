package netem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
)

// drainSpares empties the spare slabs, so the next refill of either kind
// allocates.
func drainSpares() {
	for spareData.Get() != nil {
	}
	for spareAcks.Get() != nil {
	}
}

// newestSlab returns the packets and, for ACKs, the SACK reports of the
// slab pl carved last.
func newestSlab(pl *PacketPool, ack bool) ([]Packet, []sackReport) {
	if ack {
		return pl.ackSlabs.pkts[:], pl.ackSlabs.sack[:]
	}
	return pl.dataSlabs.dataSlab[:], nil
}

// carveOne takes one packet of the kind from pl, which carves a slab if pl
// has none left.
func carveOne(pl *PacketPool, ack bool) *Packet {
	if ack {
		return pl.NewAck(0, 0, nil)
	}
	return pl.NewData(0, 0, MSS, 0, nil)
}

// useSlab puts every packet of a fresh slab of pl through a life: each is
// taken, routed, stamped and given a SACK report; a third go back to the
// free list and a third wait on a list, as in a pipe or a queue, when the
// run ends.
func useSlab(pl *PacketPool, ack bool) {
	r := NewRoute(&Collector{})
	var waiting pktList
	for i := range slabPackets {
		seq := int64(i+1) * MSS
		var p *Packet
		if ack {
			p = pl.NewAck(seq, sim.Millisecond, r)
			p.SetSack([]Block{{seq + MSS, seq + 2*MSS}})
		} else {
			p = pl.NewData(0, seq, MSS, sim.Millisecond, r)
		}
		p.Retx, p.dueAt, p.dueSeq, p.hop = true, sim.Second, uint64(i), 1
		switch i % 3 {
		case 0:
			p.Free()
		case 1:
			waiting.push(p)
		}
	}
}

// TestReleasedSlabIsFresh: a slab a finished run handed back comes out of
// the next pool's refill field for field as a newly allocated one does,
// whatever its packets went through: freed, waiting on a list, poisoned.
func TestReleasedSlabIsFresh(t *testing.T) {
	for _, ack := range []bool{false, true} {
		// The race detector drops a quarter of sync.Pool puts, so hand
		// back until the next pool takes the slab.
		var got []Packet
		var gotSack []sackReport
		var next *PacketPool
		for try := 0; got == nil; try++ {
			if try == 32 {
				t.Fatalf("ack %v: 32 released slabs, none taken by the next pool's refill", ack)
			}
			drainSpares()
			used := new(PacketPool)
			useSlab(used, ack)
			old, _ := newestSlab(used, ack)
			used.Release()
			next = new(PacketPool)
			carveOne(next, ack)
			if pkts, sacks := newestSlab(next, ack); &pkts[0] == &old[0] {
				got, gotSack = pkts, sacks
			}
		}
		drainSpares()
		fresh := new(PacketPool)
		carveOne(fresh, ack)
		want, wantSack := newestSlab(fresh, ack)
		for i := range got {
			g, w := got[i], want[i]
			if g.pool != next || w.pool != fresh {
				t.Fatalf("ack %v: packet %d belongs to %p, want its new pool %p", ack, i, g.pool, next)
			}
			if ack && (g.sack != &gotSack[i] || w.sack != &wantSack[i]) {
				t.Fatalf("ack %v: ACK %d does not point at its own SACK report", ack, i)
			}
			g.pool, w.pool, g.sack, w.sack = nil, nil, nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Errorf("ack %v: recycled packet %d\n got %+v\nwant %+v", ack, i, g, w)
			}
		}
		if !reflect.DeepEqual(gotSack, wantSack) {
			t.Errorf("ack %v: recycled SACK reports %v, want %v", ack, gotSack, wantSack)
		}
	}
}

// TestReleaseEndsPool: a released pool keeps its Stats counts, holds no
// free packet, refuses to hand out another, and a second Release does
// nothing. The packets it handed back hold no pointer into the run: only
// their pool, which holds nothing any more, and an ACK's SACK storage.
func TestReleaseEndsPool(t *testing.T) {
	pl := PoolFor(sim.New(1))
	r := NewRoute(&Collector{})
	var ps []*Packet
	for range slabPackets + 1 {
		ps = append(ps, pl.NewData(0, 3000, MSS, 0, r))
	}
	ps = append(ps, pl.NewAck(3000, 0, r))
	ps[0].Free()
	data, acks := carved(pl)
	pl.Release()
	if d, a := carved(pl); d != data || a != acks || d != 2*slabPackets || a != slabPackets {
		t.Fatalf("carved %d data segments and %d ACKs after Release, want %d and %d", d, a, 2*slabPackets, slabPackets)
	}
	if freeCount(pl) != 0 {
		t.Fatalf("free count %d after Release, want 0", freeCount(pl))
	}
	for i, p := range ps {
		if p.pool != pl || p.route != nil || p.next != nil || p.listed || !p.freed || p.Seq != poisonSeq {
			t.Fatalf("packet %d handed back as %+v, want it freed and poisoned, with only its kind, pool and SACK storage kept", i, *p)
		}
	}
	if pl.data.free != (pktList{}) || pl.acks.free != (pktList{}) || pl.data.slab != nil || pl.acks.slab != nil ||
		pl.dataSlabs != nil || pl.ackSlabs != nil || pl.ranges != nil {
		t.Fatalf("released pool still holds packets, slabs or lists: %+v", *pl)
	}
	pl.Release()
	for name, take := range map[string]func(){
		"NewData": func() { pl.NewData(0, 0, MSS, 0, nil) },
		"NewAck":  func() { pl.NewAck(0, 0, nil) },
	} {
		if msg := panicOf(take); !strings.Contains(msg, "after Release") {
			t.Errorf("%s on a released pool: panic %q, want one naming Release", name, msg)
		}
	}
}

// TestReleasePoisonsPackets: a pool stamps every packet it hands back with
// Free's poison, so a stale reader that reaches one through the finished
// network fails loudly: freeing it is a double free, and forwarding it a
// use after free. The pool is a run's, as PoolFor makes it, with nothing
// switched on.
func TestReleasePoisonsPackets(t *testing.T) {
	pl := PoolFor(sim.New(1))
	r := NewRoute(&Collector{})
	d := pl.NewData(0, 4500, MSS, 0, r)
	a := pl.NewAck(6000, 0, r)
	pl.Release()
	for _, p := range []*Packet{d, a} {
		if p.Seq != poisonSeq || p.route != nil {
			t.Errorf("released packet (ack %v) not poisoned: seq %d, route %p", p.Ack, p.Seq, p.route)
		}
		if msg := panicOf(p.Free); !strings.Contains(msg, "double free") {
			t.Errorf("freeing a released packet (ack %v): panic %q, want a double free", p.Ack, msg)
		}
		if msg := panicOf(p.SendOn); !strings.Contains(msg, "use after free") {
			t.Errorf("forwarding a released packet (ack %v): panic %q, want a use after free", p.Ack, msg)
		}
	}
}

// panicOf runs f and returns its panic message, or "" if it returns.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// Recycled-pool program opcodes: an instruction is one byte, its low two
// bits the opcode, bit 2 the kind (set: ACK), bit 3 the pool, and the high
// four bits an argument.
const (
	poolGet     = iota // take a packet of the kind from the pool
	poolFree           // free a held packet, or deliver and free a waiting one
	poolRetain         // move a held packet onto the pool's waiting list
	poolRelease        // release the pool; a new one takes its place
)

// recycledPool is one of FuzzRecycledPool's two pools and the fresh pool
// it is checked against: ref goes through the same gets and frees, never
// releases and is replaced with it.
type recycledPool struct {
	pl, ref *PacketPool
	// held and refHeld are the packets taken and not yet freed or
	// waiting, per kind, in step; waiting and refWait the packets moved
	// onto the waiting list, as a pipe or a queue holds them.
	held, refHeld    [2][]*Packet
	waiting, refWait pktList
	carved           [2]int
}

func newRecycledPool() *recycledPool {
	return &recycledPool{pl: new(PacketPool), ref: new(PacketPool)}
}

// unhold takes the held packet of the kind at arg, modulo how many there
// are, and its fresh pool's twin off the held lists.
func (rp *recycledPool) unhold(kind, arg int) (p, q *Packet, ok bool) {
	n := len(rp.held[kind])
	if n == 0 {
		return nil, nil, false
	}
	i := arg % n
	p, q = rp.held[kind][i], rp.refHeld[kind][i]
	rp.held[kind] = append(rp.held[kind][:i], rp.held[kind][i+1:]...)
	rp.refHeld[kind] = append(rp.refHeld[kind][:i], rp.refHeld[kind][i+1:]...)
	return p, q, true
}

// holds reports whether p lies in one of pl's slabs.
func holds(pl *PacketPool, p *Packet) bool {
	for s := pl.dataSlabs; s != nil; s = s.prev {
		for i := range s.dataSlab {
			if &s.dataSlab[i] == p {
				return true
			}
		}
	}
	for s := pl.ackSlabs; s != nil; s = s.prev {
		for i := range s.pkts {
			if &s.pkts[i] == p {
				return true
			}
		}
	}
	return false
}

// packetView is what a packet holds, with its pointers reduced to what two
// pools' packets can share: the route, and whether it is linked.
type packetView struct {
	route         *Route
	linked        bool
	dueAt         sim.Time
	dueSeq        uint64
	size, hop     uint16
	ack, retx     bool
	freed, listed bool
	seq           int64
	sentAt        sim.Time
	hasSack       bool
	sack          sackReport
}

func viewOf(p *Packet) packetView {
	v := packetView{
		route: p.route, linked: p.next != nil, dueAt: p.dueAt, dueSeq: p.dueSeq,
		size: p.Size, hop: p.hop, ack: p.Ack, retx: p.Retx, freed: p.freed, listed: p.listed,
		seq: p.Seq, sentAt: p.SentAt, hasSack: p.sack != nil,
	}
	if p.sack != nil {
		v.sack = *p.sack
	}
	return v
}

// FuzzRecycledPool runs byte programs of gets, frees, retains and releases
// over two pools, so that each takes the slabs the other handed back, and
// checks each against a fresh pool that runs the same gets and frees but
// never releases. No packet is handed out twice or from a slab another
// pool holds; every packet taken is in a fresh state, equal to the fresh
// pool's; Stats and the free lists equal the fresh pool's, and Stats never
// decreases, Release included.
func FuzzRecycledPool(f *testing.F) {
	const get, free, retain, release = poolGet, poolFree, poolRetain, poolRelease
	ack, other := byte(1<<2), byte(1<<3)
	// A slab of each kind used and released by one pool, then taken by
	// the other.
	f.Add([]byte{get, get | ack, get, free, retain, get | ack, release, get | other, get | ack | other, free | other})
	// Packets waiting when their pool is released.
	f.Add([]byte{get, get, retain, retain, get | ack, retain | ack, release, get | other, get | other, get | ack | other, release | other, get})
	// More than a slab of data segments, freed and taken back, released
	// twice over.
	prog := []byte{}
	for range 20 {
		prog = append(prog, get)
	}
	prog = append(prog, 0x50|free, 0x30|free, get, get, release, release, get|other)
	f.Add(prog)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			t.Skip("longer programs add time, not cases")
		}
		runRecycledProgram(t, prog)
	})
}

func runRecycledProgram(t *testing.T, prog []byte) {
	pools := [2]*recycledPool{newRecycledPool(), newRecycledPool()}
	owner := make(map[*Packet]int) // packets handed out and not yet freed or released, by pool
	route := NewRoute(&Collector{})
	for pc, b := range prog {
		op, kind, k, arg := b&3, int(b>>2&1), int(b>>3&1), int(b>>4)
		rp := pools[k]
		switch op {
		case poolGet:
			seq := int64(pc+1) * MSS
			fresh := kindFree(rp.pl, kind) == 0
			var p, q *Packet
			if kind == 1 {
				p, q = rp.pl.NewAck(seq, sim.Millisecond, route), rp.ref.NewAck(seq, sim.Millisecond, route)
			} else {
				p, q = rp.pl.NewData(0, seq, MSS, sim.Millisecond, route), rp.ref.NewData(0, seq, MSS, sim.Millisecond, route)
			}
			if o, ok := owner[p]; ok {
				t.Fatalf("step %d: pool %d handed out packet %p, which pool %d holds", pc, k, p, o)
			}
			if !holds(rp.pl, p) || holds(pools[1-k].pl, p) {
				t.Fatalf("step %d: packet %p not in a slab of pool %d alone", pc, p, k)
			}
			if p.pool != rp.pl || (p.sack != nil) != (kind == 1) {
				t.Fatalf("step %d: packet of pool %p with SACK storage %v, want pool %p and storage %v", pc, p.pool, p.sack != nil, rp.pl, kind == 1)
			}
			if got, want := viewOf(p), viewOf(q); got != want {
				t.Fatalf("step %d: pool %d handed out\n%+v\nthe fresh pool\n%+v", pc, k, got, want)
			}
			if fresh && (p.dueAt != 0 || p.dueSeq != 0 || (p.sack != nil && *p.sack != sackReport{})) {
				t.Fatalf("step %d: carved packet not pristine: %+v", pc, viewOf(p))
			}
			// Use it, so that a packet that comes back unreset shows.
			for _, x := range []*Packet{p, q} {
				x.Retx, x.dueAt, x.dueSeq = true, sim.Time(pc), uint64(pc)
				if x.Ack {
					x.SetSack([]Block{{seq + 1, seq + 2 + int64(arg)}})
				}
			}
			owner[p] = k
			rp.held[kind] = append(rp.held[kind], p)
			rp.refHeld[kind] = append(rp.refHeld[kind], q)
		case poolFree:
			if arg&1 == 1 && rp.waiting.n > 0 {
				p, q := rp.waiting.pop(), rp.refWait.pop()
				delete(owner, p)
				p.Free()
				q.Free()
				break
			}
			if p, q, ok := rp.unhold(kind, arg); ok {
				delete(owner, p)
				p.Free()
				q.Free()
			}
		case poolRetain:
			if p, q, ok := rp.unhold(kind, arg); ok {
				rp.waiting.push(p)
				rp.refWait.push(q)
			}
		case poolRelease:
			data, acks := carved(rp.pl)
			rp.pl.Release()
			if d, a := carved(rp.pl); d != data || a != acks || freeCount(rp.pl) != 0 {
				t.Fatalf("step %d: released pool %d carved %d and %d (before: %d and %d), %d free", pc, k, d, a, data, acks, freeCount(rp.pl))
			}
			for p, o := range owner {
				if o == k {
					delete(owner, p)
				}
			}
			pools[k] = newRecycledPool()
			continue
		}
		data, acks := carved(rp.pl)
		refData, refAcks := carved(rp.ref)
		if data != refData || acks != refAcks || freeCount(rp.pl) != freeCount(rp.ref) {
			t.Fatalf("step %d: pool %d carved %d and %d with %d free, the fresh pool %d and %d with %d free",
				pc, k, data, acks, freeCount(rp.pl), refData, refAcks, freeCount(rp.ref))
		}
		if data < rp.carved[0] || acks < rp.carved[1] {
			t.Fatalf("step %d: pool %d carved fell from %v to [%d %d]", pc, k, rp.carved, data, acks)
		}
		rp.carved = [2]int{data, acks}
	}
}

// kindFree reports how many packets of the kind (1: ACKs) wait on pl's free
// list.
func kindFree(pl *PacketPool, kind int) int {
	if kind == 1 {
		return pl.acks.free.n
	}
	return pl.data.free.n
}
