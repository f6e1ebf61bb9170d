package netem

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// insertRange is the reference Ranges.Insert is checked against: the
// merge the range lists ran on while they held 64-bit Blocks. It adds b to
// rs, a list of ascending ranges that neither overlap nor touch, and
// returns the list with the same property: b absorbs every range it
// overlaps or abuts.
func insertRange(rs []Block, b Block) []Block {
	// First entry that ends at or after b's start: rs[:i] lies wholly below b.
	i, hi := 0, len(rs)
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if rs[m].End < b.Start {
			i = m + 1
		} else {
			hi = m
		}
	}
	j := i
	for j < len(rs) && rs[j].Start <= b.End {
		if rs[j].Start < b.Start {
			b.Start = rs[j].Start
		}
		if rs[j].End > b.End {
			b.End = rs[j].End
		}
		j++
	}
	switch j - i {
	case 0:
		if cap(rs) == 0 {
			rs = make([]Block, 0, MaxSackBlocks)
		}
		rs = append(rs, Block{})
		copy(rs[i+1:], rs[i:])
	case 1:
	default:
		rs = append(rs[:i+1], rs[j:]...)
	}
	rs[i] = b
	return rs
}

// clipFront is the reference for Ranges.ClipFront: rs without the bytes
// below x.
func clipFront(rs []Block, x int64) []Block {
	for len(rs) > 0 && rs[0].End <= x {
		rs = rs[1:]
	}
	if len(rs) > 0 && rs[0].Start < x {
		rs[0].Start = x
	}
	return rs
}

// insertPanic calls r.Insert(b) and returns its panic message, or "" if it
// did not panic.
func insertPanic(r *Ranges, b Block) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	r.Insert(b)
	return ""
}

// Range-program opcodes, one byte each, the opcode modulo rangeOps:
//
//	rangeNear  u16 start, u8 length-1: Insert [origin+start, +length)
//	rangeDrop  u8 k: Drop(k mod (Len+1))
//	rangeClip  u16 x: ClipFront(origin+x)
//	rangeFar   u32 start, u16 length-1: Insert [front+start, +length), front
//	           being the first Start (origin when empty)
//
// An insert that would put an edge 2³² or more above the list's base must
// panic naming it, and leave the list as it was.
const (
	rangeNear = iota
	rangeDrop
	rangeClip
	rangeFar
	rangeOps
)

// runRangeProgram runs prog on a Ranges and on the []Block reference from
// origin, and fails t unless after every op the lists are equal and the
// base lies at the first Start, at or below every edge.
func runRangeProgram(t *testing.T, origin int64, prog []byte) {
	t.Helper()
	var r Ranges
	var ref []Block
	le := binary.LittleEndian
	// insert inserts b into both, or, if an edge would land 2³² or more
	// above the base, checks that Insert panics naming it.
	insert := func(b Block) {
		lo, hi := b.Start, b.End
		if len(ref) > 0 {
			lo, hi = min(lo, ref[0].Start), max(hi, ref[len(ref)-1].End)
		}
		if hi-lo <= math.MaxUint32 {
			r.Insert(b)
			ref = insertRange(ref, b)
			return
		}
		want := fmt.Sprintf("base (%d)", lo)
		if msg := insertPanic(&r, b); !strings.Contains(msg, want) {
			t.Fatalf("Insert(%v) over %v: panic %q, want one naming %s", b, ref, msg, want)
		}
	}
	for pc := 0; pc < len(prog); {
		op := prog[pc] % rangeOps
		pc++
		switch {
		case op == rangeNear && pc+3 <= len(prog):
			s := origin + int64(le.Uint16(prog[pc:]))
			b := Block{Start: s, End: s + 1 + int64(prog[pc+2])}
			pc += 3
			insert(b)
		case op == rangeDrop && pc < len(prog):
			k := int(prog[pc]) % (len(ref) + 1)
			pc++
			r.Drop(k)
			ref = ref[k:]
		case op == rangeClip && pc+2 <= len(prog):
			x := origin + int64(le.Uint16(prog[pc:]))
			pc += 2
			r.ClipFront(x)
			ref = clipFront(ref, x)
		case op == rangeFar && pc+6 <= len(prog):
			front := origin
			if len(ref) > 0 {
				front = ref[0].Start
			}
			s := front + int64(le.Uint32(prog[pc:]))
			b := Block{Start: s, End: s + 1 + int64(le.Uint16(prog[pc+4:]))}
			pc += 6
			insert(b)
		default:
			pc = len(prog)
			continue
		}
		got := r.Head(make([]Block, r.Len()+1))
		if !slices.Equal(got, ref) {
			t.Fatalf("after op %d at byte %d: ranges %v, reference %v", op, pc, got, ref)
		}
		for _, b := range got {
			if b.Start < r.base || b.End < r.base {
				t.Fatalf("after op %d at byte %d: range %v below base %d", op, pc, b, r.base)
			}
		}
		if len(got) > 0 && r.base != got[0].Start {
			t.Fatalf("after op %d at byte %d: base %d, first range %v", op, pc, r.base, got[0])
		}
	}
}

// FuzzRanges: a byte program of inserts, drops and front clips leaves a
// Ranges equal to the []Block reference after every step, its base at its
// first Start, and an insert that would put an edge 2³² or more above the
// base panics naming it.
//
//	go test ./internal/netem -run '^$' -fuzz FuzzRanges -fuzztime 10s
func FuzzRanges(f *testing.F) {
	le := binary.LittleEndian
	near := func(start uint16, lenLess1 byte) []byte {
		return append(le.AppendUint16([]byte{rangeNear}, start), lenLess1)
	}
	far := func(start uint32, lenLess1 uint16) []byte {
		return le.AppendUint16(le.AppendUint32([]byte{rangeFar}, start), lenLess1)
	}
	clip := func(x uint16) []byte { return le.AppendUint16([]byte{rangeClip}, x) }
	drop := func(k byte) []byte { return []byte{rangeDrop, k} }
	// An insert below the base, then one below every range.
	f.Add(int64(0), slices.Concat(near(1000, 9), near(2000, 9), near(500, 9), near(0, 0)))
	// One range that swallows the whole list.
	f.Add(int64(-1<<40), slices.Concat(near(100, 9), near(200, 9), near(300, 9), near(400, 9), near(50, 255), near(250, 255)))
	// Edges at MaxUint32 above the base, then at 2³²: the last must panic.
	f.Add(int64(1)<<40, slices.Concat(near(0, 0), far(math.MaxUint32-1, 0), far(math.MaxUint32, 0)))
	// Drops and clips move the base up; a far insert then reaches from it.
	f.Add(int64(7), slices.Concat(near(0, 9), near(100, 9), near(200, 9), drop(1), clip(150), clip(205), far(math.MaxUint32-300, 0), drop(9)))
	f.Fuzz(func(t *testing.T, origin int64, prog []byte) {
		if len(prog) > 1024 {
			t.Skip("longer programs add time, not cases")
		}
		// Keep every edge a program can reach representable.
		origin = min(max(origin, math.MinInt64/2), math.MaxInt64/2)
		runRangeProgram(t, origin, prog)
	})
}

// maxRangesBytes is what a list of 64 ranges may allocate, grown one
// insert at a time: born at MaxSackBlocks (64 bytes) and doubled to 16, 32
// and 64 ranges, 8 bytes each.
const maxRangesBytes = 64 + 128 + 256 + 512

// TestRangesBytes locks what a growing list costs: 64 disjoint inserts,
// ascending or each below the last, allocate at most maxRangesBytes.
func TestRangesBytes(t *testing.T) {
	for _, step := range []int64{3, -3} {
		var r Ranges
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := int64(0); i < 64; i++ {
			r.Insert(Block{Start: step * i, End: step*i + 1})
		}
		runtime.ReadMemStats(&after)
		if r.Len() != 64 {
			t.Fatalf("step %d: %d ranges, want 64", step, r.Len())
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > maxRangesBytes {
			t.Errorf("step %d: 64 inserts allocated %d bytes, want at most %d", step, n, maxRangesBytes)
		}
	}
}

// Recycled-range program opcodes: an instruction is one byte, its low
// three bits the opcode, modulo recycledRangeOps, and bit 3 the list:
//
//	recycledInsert  u16 start, u8 length-1: Insert [origin+start, +length)
//	recycledSpread  u8 n: insert n+1 one-byte ranges, two bytes apart,
//	                from two bytes above the top range
//	recycledDrop    u8 k: Drop(k mod (Len+1))
//	recycledClip    u16 x: ClipFront(origin+x)
//	recycledRelease release the list's pool
//	recycledRebind  bind the list to a new pool
const (
	recycledInsert = iota
	recycledSpread
	recycledDrop
	recycledClip
	recycledRelease
	recycledRebind
	recycledRangeOps
)

// recycledList is one of FuzzRecycledRanges' two lists: r, bound to pl,
// and the fresh list twin, which belongs to no pool, with the []Block
// reference ref. Both run the same ops; twin and ref are emptied when pl
// is released.
type recycledList struct {
	r    Ranges
	twin Ranges
	ref  []Block
	pl   *PacketPool
}

// arrayOf returns the address of the array r holds, or nil.
func arrayOf(r *Ranges) *[2]uint32 {
	if cap(r.e) == 0 {
		return nil
	}
	return &r.e[:1][0]
}

// FuzzRecycledRanges runs byte programs of inserts, drops, clips, releases
// and re-binds over two lists bound to two pools, so that each grows on
// arrays the other outgrew or handed back, and checks each against a
// fresh list that belongs to no pool and against the []Block reference.
// After every step a bound list holds the reference's ranges in an array
// of the fresh list's capacity, carried by its holder; the two lists never
// share an array; a list its pool released is empty and refuses inserts
// until it is bound again, and a live list refuses a second Bind.
//
//	go test ./internal/netem -run '^$' -fuzz FuzzRecycledRanges -fuzztime 10s
func FuzzRecycledRanges(f *testing.F) {
	le := binary.LittleEndian
	other := byte(1 << 3)
	insert := func(l byte, start uint16, lenLess1 byte) []byte {
		return append(le.AppendUint16([]byte{recycledInsert | l}, start), lenLess1)
	}
	spread := func(l, n byte) []byte { return []byte{recycledSpread | l, n} }
	release := func(l byte) []byte { return []byte{recycledRelease | l} }
	rebind := func(l byte) []byte { return []byte{recycledRebind | l} }
	// One list grows to 256 ranges, hands its arrays back as it grows and
	// as its pool is released; the other grows on them.
	f.Add(int64(0), slices.Concat(spread(0, 255), release(0), spread(other, 200), insert(other, 3, 9), rebind(0), spread(0, 40)))
	// Both grow at once, trading arrays as they outgrow them; a drop and a
	// clip shrink one, which keeps its array.
	f.Add(int64(1)<<33, slices.Concat(spread(0, 7), spread(other, 7), spread(0, 20), spread(other, 30),
		[]byte{recycledDrop, 5, recycledClip | other, 0, 1}, release(other), rebind(other), insert(other, 9, 0), insert(0, 7, 200)))
	// An insert into a released list, a second Bind of a live one, two
	// releases in a row.
	f.Add(int64(-5), slices.Concat(insert(0, 10, 0), rebind(0), release(0), release(0), insert(0, 10, 0), rebind(0), insert(0, 10, 0)))
	f.Fuzz(func(t *testing.T, origin int64, prog []byte) {
		if len(prog) > 1024 {
			t.Skip("longer programs add time, not cases")
		}
		origin = min(max(origin, math.MinInt64/2), math.MaxInt64/2)
		runRecycledRanges(t, origin, prog)
	})
}

func runRecycledRanges(t *testing.T, origin int64, prog []byte) {
	var lists [2]*recycledList
	for k := range lists {
		l := &recycledList{pl: new(PacketPool)}
		l.r.Bind(l.pl)
		lists[k] = l
	}
	le := binary.LittleEndian
	insert := func(l *recycledList, b Block) {
		if l.pl.released {
			if msg := insertPanic(&l.r, b); !strings.Contains(msg, "after Release") {
				t.Fatalf("Insert(%v) into a released list: panic %q, want one naming Release", b, msg)
			}
			return
		}
		l.r.Insert(b)
		l.twin.Insert(b)
		l.ref = insertRange(l.ref, b)
	}
	for pc := 0; pc < len(prog); {
		op, l := prog[pc]&7%recycledRangeOps, lists[prog[pc]>>3&1]
		pc++
		switch {
		case op == recycledInsert && pc+3 <= len(prog):
			s := origin + int64(le.Uint16(prog[pc:]))
			insert(l, Block{Start: s, End: s + 1 + int64(prog[pc+2])})
			pc += 3
		case op == recycledSpread && pc < len(prog):
			top := origin
			if len(l.ref) > 0 {
				top = l.ref[len(l.ref)-1].End
			}
			for i := range int64(prog[pc]) + 1 {
				s := top + 2 + 2*i
				insert(l, Block{Start: s, End: s + 1})
			}
			pc++
		case op == recycledDrop && pc < len(prog):
			k := int(prog[pc]) % (len(l.ref) + 1)
			pc++
			l.r.Drop(k)
			l.twin.Drop(k)
			l.ref = l.ref[k:]
		case op == recycledClip && pc+2 <= len(prog):
			x := origin + int64(le.Uint16(prog[pc:]))
			pc += 2
			l.r.ClipFront(x)
			l.twin.ClipFront(x)
			l.ref = clipFront(l.ref, x)
		case op == recycledRelease:
			l.pl.Release()
			l.twin, l.ref = Ranges{}, nil
			if r := l.r; r.e != nil || r.buf != nil || r.next != nil || r.pool != l.pl {
				t.Fatalf("at byte %d: released list holds %d of %d ranges, holder %p, link %p", pc, len(r.e), cap(r.e), r.buf, r.next)
			}
		case op == recycledRebind:
			if !l.pl.released {
				if msg := panicOf(func() { l.r.Bind(new(PacketPool)) }); !strings.Contains(msg, "live pool") {
					t.Fatalf("at byte %d: Bind of a live list: panic %q, want one naming its live pool", pc, msg)
				}
				break
			}
			l.pl = new(PacketPool)
			l.r.Bind(l.pl)
		default:
			pc = len(prog)
			continue
		}
		for k, l := range lists {
			got := l.r.Head(make([]Block, l.r.Len()+1))
			if !slices.Equal(got, l.ref) || !slices.Equal(got, l.twin.Head(make([]Block, l.twin.Len()+1))) {
				t.Fatalf("after op %d at byte %d: list %d holds %v, the fresh list %v, the reference %v", op, pc, k, got, l.twin.Head(make([]Block, l.twin.Len()+1)), l.ref)
			}
			if cap(l.r.e) != cap(l.twin.e) {
				t.Fatalf("after op %d at byte %d: list %d has room for %d ranges, the fresh list for %d", op, pc, k, cap(l.r.e), cap(l.twin.e))
			}
			if b := l.r.buf; (b == nil) != (cap(l.r.e) == 0) || (b != nil && (len(b.e) != cap(l.r.e) || &b.e[0] != arrayOf(&l.r))) {
				t.Fatalf("after op %d at byte %d: list %d holds an array of %d ranges that its holder %p does not carry", op, pc, k, cap(l.r.e), b)
			}
		}
		if a := arrayOf(&lists[0].r); a != nil && a == arrayOf(&lists[1].r) {
			t.Fatalf("after op %d at byte %d: both lists hold the array at %p", op, pc, a)
		}
	}
}
