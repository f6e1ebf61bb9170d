package netem

import (
	"fmt"
	"math"
)

// Ranges is a list of byte ranges that ascend and neither overlap nor
// touch: a receiver's reorder buffer, a sender's SACK scoreboard, a
// stream's out-of-order data. Like an ACK's SACK report, it holds each
// range as two 32-bit offsets, here above base, the list's first Start: 8
// bytes a range instead of 16. The base moves with the front — an insert
// below it, Drop and ClipFront rebase the list — so an edge overflows only
// 2³² bytes above the lowest buffered byte, and Insert panics there. No
// run comes near: every range a list holds lies within one window (at
// most 2³⁰ bytes) of its owner's cumulative point. The zero value is an
// empty list.
type Ranges struct {
	base int64
	e    [][2]uint32
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
// and the block, if an edge would land 2³² or more above the list's base.
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
		if cap(r.e) == 0 {
			// A list's first growth, once in its life.
			r.e = make([][2]uint32, 0, MaxSackBlocks)
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
