package netem

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Ranges is a list of byte ranges that ascend and neither overlap nor
// touch: a receiver's reorder buffer, a sender's SACK scoreboard, a
// stream's out-of-order data. Like an ACK's SACK report, it holds each
// range as two 32-bit offsets, here above base, the list's first Start: 8
// bytes a range instead of 16. The base moves with the front — an insert
// below it, Drop and ClipFront rebase the list — so an edge overflows only
// 2³² bytes above the lowest buffered byte, and Insert panics there. No
// run comes near: every range a list holds lies within one window (at
// most 2³⁰ bytes) of its owner's cumulative point.
//
// A list's array has room for MaxSackBlocks ranges times a power of two,
// and a full list moves to one twice the size. A list bound to a packet
// pool (Bind), as every list of a tcp.Src, tcp.Sink and mptcp.Stream is,
// takes its arrays from spares that finished runs handed back before it
// allocates, hands the array it outgrows straight back to them, and hands
// back the one it holds, emptied, when its pool is released: range lists
// outlive their run, as packet slabs do. The zero value is an empty list
// that belongs to no pool and allocates each array it grows into.
type Ranges struct {
	base int64
	e    [][2]uint32
	// buf carries e's array while the list is bound; nil otherwise.
	buf  *rangeBuf
	pool *PacketPool
	// next is the list bound to the same pool before this one.
	next *Ranges
}

// rangeBuf is a spare range array in transit: e spans the whole array. It
// stays with its array for life, so a list hands an array back, through a
// sync.Pool, as a pointer, and the hand-back allocates nothing.
type rangeBuf struct{ e [][2]uint32 }

// spareRanges holds the arrays lists outgrew or their pools' Release
// handed back, one sync.Pool per size class: class c holds arrays of
// MaxSackBlocks << c ranges. The last, class 28, holds 2³¹ ranges, the
// most Insert lets a list hold: a byte per range and a byte between
// ranges, all within 2³² bytes of the base.
var spareRanges [29]sync.Pool

// rangeClass is the size class of an array of n ranges, n being
// MaxSackBlocks times a power of two.
func rangeClass(n int) int { return bits.Len(uint(n/MaxSackBlocks)) - 1 }

// Bind makes pl the owner of r's storage: from then on r grows on spare
// arrays and pl's Release hands r's array back and empties r. r must hold
// no array and belong to no pool that is still live; a list its pool's
// Release emptied may be bound again. Bind panics otherwise.
func (r *Ranges) Bind(pl *PacketPool) {
	if cap(r.e) > 0 || (r.pool != nil && !r.pool.released) {
		panic(fmt.Sprintf("netem: Bind of a range list with an array of %d ranges or a live pool (%p)", cap(r.e), r.pool))
	}
	r.pool, r.next, pl.ranges = pl, pl.ranges, r
}

// Len reports how many ranges the list holds.
//
//simlint:hot
func (r *Ranges) Len() int { return len(r.e) }

// Block returns the i-th range, lowest first, for i below Len.
//
//simlint:hot
func (r *Ranges) Block(i int) Block {
	e := r.e[i]
	return Block{Start: r.base + int64(e[0]), End: r.base + int64(e[1])}
}

// Insert adds b, which must not be reversed, and keeps the list's
// property: b absorbs every range it overlaps or abuts. The common cases
// move nothing — a range that merges with exactly one entry (every block
// an ACK repeats, every segment that extends a buffered run) overwrites it
// in place. A list is born at MaxSackBlocks ranges on its first insert,
// instead of doubling through 1, 2 and 4. Insert panics, naming the base
// and the block, if an edge would land 2³² or more above the list's base,
// and on a list whose pool was released.
//
//simlint:hot
func (r *Ranges) Insert(b Block) {
	n := len(r.e)
	if n == 0 {
		r.base = b.Start
	}
	lo, hi := min(r.base, b.Start), b.End
	if n > 0 {
		hi = max(hi, r.base+int64(r.e[n-1][1]))
	}
	if b.End < b.Start || uint64(hi-lo) > math.MaxUint32 {
		panic(fmt.Sprintf("netem: range [%d, %d) is reversed or would put an edge 2^32 or more above the range list's base (%d)", b.Start, b.End, lo))
	}
	if lo < r.base {
		// The front moves down: every offset moves up by as much.
		d := uint32(r.base - lo)
		for i := range r.e {
			r.e[i][0] += d
			r.e[i][1] += d
		}
		r.base = lo
	}
	s, end := uint32(b.Start-r.base), uint32(b.End-r.base)
	// First entry that ends at or after b's start: r.e[:i] lies wholly
	// below b.
	i, top := 0, n
	for i < top {
		m := int(uint(i+top) >> 1)
		if r.e[m][1] < s {
			i = m + 1
		} else {
			top = m
		}
	}
	j := i
	for j < n && r.e[j][0] <= end {
		s, end = min(s, r.e[j][0]), max(end, r.e[j][1])
		j++
	}
	switch j - i {
	case 0:
		if n == cap(r.e) {
			r.grow()
		}
		r.e = append(r.e, [2]uint32{})
		copy(r.e[i+1:], r.e[i:])
	case 1:
		// b replaces the one entry it merged with, below.
	default:
		r.e = append(r.e[:i+1], r.e[j:]...)
	}
	r.e[i] = [2]uint32{s, end}
}

// grow moves the list to an array twice the size of the full one it
// holds, or of MaxSackBlocks ranges if it holds none. A bound list takes
// the array from the spares of its class, if a finished run or an
// outgrown list left one there, and hands the old array back to its own.
func (r *Ranges) grow() {
	n := max(2*cap(r.e), MaxSackBlocks)
	pl := r.pool
	if pl == nil {
		//simlint:ignore hotpathalloc amortised growth of a list that belongs to no pool: once per doubling
		r.e = append(make([][2]uint32, 0, n), r.e...)
		return
	}
	if pl.released {
		panic("netem: range list of a pool after Release: its arrays were handed back")
	}
	c := rangeClass(n)
	b, _ := spareRanges[c].Get().(*rangeBuf)
	if b == nil {
		//simlint:ignore hotpathalloc amortised growth: once per doubling past the arrays finished runs and outgrown lists handed back, and none once the spares hold a run's largest lists
		b = &rangeBuf{e: make([][2]uint32, n)}
	}
	copy(b.e, r.e)
	if old := r.buf; old != nil {
		spareRanges[c-1].Put(old)
	}
	r.e, r.buf = b.e[:len(r.e)], b
}

// release hands r's array back to the spares of its class and empties r,
// leaving it bound to its released pool, whose Release calls it.
func (r *Ranges) release() {
	if b := r.buf; b != nil {
		spareRanges[rangeClass(len(b.e))].Put(b)
	}
	r.base, r.e, r.buf, r.next = 0, nil, nil, nil
}

// Drop removes the k lowest ranges, for k at most Len, and rebases the
// rest on the new first Start as it copies them down, so the list keeps
// its capacity.
//
//simlint:hot
func (r *Ranges) Drop(k int) {
	var d uint32
	if k < len(r.e) {
		d = r.e[k][0]
	}
	r.cut(k, d)
}

// ClipFront discards every byte below x: the ranges that end at or below
// it, and the part of the next that starts below it.
//
//simlint:hot
func (r *Ranges) ClipFront(x int64) {
	k := 0
	for k < len(r.e) && r.base+int64(r.e[k][1]) <= x {
		k++
	}
	var d uint32
	if k < len(r.e) {
		// x lies below the k-th range's end, so x - base fits.
		d = max(r.e[k][0], uint32(max(x-r.base, 0)))
	}
	r.cut(k, d)
}

// cut drops the k lowest ranges and makes base + d, which lies inside the
// k-th, the new base: its start, or above it to clip the range.
func (r *Ranges) cut(k int, d uint32) {
	if k == 0 && d == 0 {
		return // the front stays: nothing moves
	}
	rest := r.e[k:]
	for i, e := range rest {
		r.e[i] = [2]uint32{max(e[0], d) - d, e[1] - d}
	}
	r.e = r.e[:len(rest)]
	r.base += int64(d)
}

// Head copies the lowest ranges into dst, as many as fit, and returns the
// filled part of dst.
//
//simlint:hot
func (r *Ranges) Head(dst []Block) []Block {
	n := min(len(dst), len(r.e))
	for i := range dst[:n] {
		dst[i] = r.Block(i)
	}
	return dst[:n]
}
