package netem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
)

// sackOf copies p's SACK report out through SackLen and SackBlock.
func sackOf(p *Packet) []Block {
	var bs []Block
	for i := range p.SackLen() {
		bs = append(bs, p.SackBlock(i))
	}
	return bs
}

// setSackPanic calls p.SetSack(bs) and returns its panic message, or ""
// if it did not panic.
func setSackPanic(p *Packet, bs []Block) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	p.SetSack(bs)
	return ""
}

// sackEdges decodes data into at most MaxSackBlocks ascending, disjoint,
// non-empty blocks in (seq, seq + 2³²), 8 bytes a block: a little-endian
// uint32 gap above the previous block's end (above seq for the first
// block, whose zero gap puts it at seq + 1), and a uint32 length less one.
// A block that would reach past seq + MaxUint32 ends there and is the last.
func sackEdges(seq int64, data []byte) []Block {
	var bs []Block
	lo := uint64(1)
	for len(data) >= 8 && len(bs) < MaxSackBlocks && lo < math.MaxUint32 {
		s := lo + uint64(binary.LittleEndian.Uint32(data))
		e := s + 1 + uint64(binary.LittleEndian.Uint32(data[4:]))
		data = data[8:]
		if s >= math.MaxUint32 {
			break
		}
		e = min(e, math.MaxUint32)
		bs = append(bs, Block{Start: seq + int64(s), End: seq + int64(e)})
		lo = e
	}
	return bs
}

// FuzzSackEdges: a report of up to MaxSackBlocks ascending, disjoint blocks
// in (seq, seq + 2³²) reads back unchanged through SackBlock, down to edges
// at seq + 1 and seq + MaxUint32; a report with a block at or below seq,
// past seq + 2³², empty, out of order or overlapping its predecessor
// panics, naming the seq.
//
//	go test ./internal/netem -run '^$' -fuzz FuzzSackEdges -fuzztime 10s
func FuzzSackEdges(f *testing.F) {
	le := binary.LittleEndian
	block := func(gap, lenLess1 uint32) []byte { return le.AppendUint32(le.AppendUint32(nil, gap), lenLess1) }
	f.Add(int64(0), block(0, 0))
	f.Add(int64(6000), slices.Concat(block(1499, 1499), block(1499, 1499), block(0, 0)))
	f.Add(int64(-1), block(0, math.MaxUint32-2))
	f.Add(int64(1)<<40, block(math.MaxUint32-10, 100))
	f.Add(int64(3), slices.Concat(block(0, 0), block(0, 0), block(0, 0), block(0, 0),
		block(0, 0), block(0, 0), block(0, 0), block(0, 0), block(0, 0)))
	f.Fuzz(func(t *testing.T, seq int64, data []byte) {
		// Keep seq - 255, seq + 2³² + 255 and every edge between representable.
		seq = min(max(seq, math.MinInt64+256), math.MaxInt64-(1<<33))
		bs := sackEdges(seq, data)
		pl := PoolFor(sim.New(1))
		p := pl.NewAck(seq, 0, nil)
		p.SetSack(bs)
		if got := sackOf(p); !slices.Equal(got, bs) {
			t.Fatalf("seq %d: SetSack(%v) read back %v", seq, bs, got)
		}

		name := fmt.Sprintf("seq %d", seq)
		bad := func(why string, bs []Block) {
			t.Helper()
			if msg := setSackPanic(pl.NewAck(seq, 0, nil), bs); !strings.Contains(msg, name) {
				t.Errorf("%s: SetSack(%v) panic %q, want one naming %s", why, bs, msg, name)
			}
		}
		if len(bs) == 0 {
			bs = []Block{{seq + 1, seq + 2}}
		}
		k := len(data) % len(bs) // the block to spoil
		var off int64
		if len(data) > 0 {
			off = int64(data[0])
		}
		spoil := func(f func(bs []Block)) []Block {
			c := slices.Clone(bs)
			f(c)
			return c
		}
		bad("at or below seq", spoil(func(c []Block) { c[0].Start = seq - off }))
		bad("past 2^32", spoil(func(c []Block) { c[len(c)-1].End = seq + 1<<32 + off }))
		bad("empty", spoil(func(c []Block) { c[k].End = c[k].Start }))
		if len(bs) > 1 {
			k := k % (len(bs) - 1)
			bad("out of order", spoil(func(c []Block) { c[k], c[k+1] = c[k+1], c[k] }))
			bad("overlapping", spoil(func(c []Block) { c[k+1].Start = c[k].End - 1 }))
		}
	})
}
