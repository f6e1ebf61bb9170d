package tcp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Model-based test of the receiver's reorder buffer, in the pattern of
// internal/sim/queue_model_test.go. A byte string is a program of segment
// arrivals; the interpreter feeds each one to a real Sink, which keeps what
// it holds above the cumulative ACK as merged byte ranges, and to segSink,
// the per-segment buffer the Sink had before, and requires the same
// cumulative ACK, goodput and emitted ACK — SACK report included — after
// every arrival.

// segSink is the reference: one entry per buffered segment, sorted by seq,
// merged into ranges only when a report is built. It is the previous
// implementation line for line, with one deliberate difference marked below.
type segSink struct {
	cumAck int64
	bytes  int64
	ooo    []seg
}

type seg struct {
	seq  int64
	size int64
}

func (k *segSink) recv(seq, size int64) {
	end := seq + size
	switch {
	case seq <= k.cumAck && end > k.cumAck:
		k.bytes += end - k.cumAck
		k.cumAck = end
		k.drainOOO()
	case seq > k.cumAck:
		k.insertOOO(seq, size)
	}
}

func (k *segSink) insertOOO(seq, size int64) {
	i := sort.Search(len(k.ooo), func(i int) bool { return k.ooo[i].seq >= seq })
	if i < len(k.ooo) && k.ooo[i].seq == seq {
		// The difference: the old code returned here unconditionally, so a
		// longer copy of a buffered seq (a stream's short chunk tail,
		// retransmitted at full size once the chunk was extended) lost the
		// bytes past the first copy's end. A receiver keeps what it was
		// sent, and a buffer of ranges has no segment starts to do
		// otherwise with.
		if size > k.ooo[i].size {
			k.ooo[i].size = size
		}
		return
	}
	k.ooo = append(k.ooo, seg{})
	copy(k.ooo[i+1:], k.ooo[i:])
	k.ooo[i] = seg{seq, size}
}

func (k *segSink) drainOOO() {
	i := 0
	for i < len(k.ooo) {
		s := k.ooo[i]
		if s.seq > k.cumAck {
			break
		}
		if end := s.seq + s.size; end > k.cumAck {
			k.bytes += end - k.cumAck
			k.cumAck = end
		}
		i++
	}
	if i > 0 {
		k.ooo = append(k.ooo[:0], k.ooo[i:]...)
	}
}

func (k *segSink) appendSackBlocks(dst []netem.Block) []netem.Block {
	if len(k.ooo) == 0 {
		return dst
	}
	cur := netem.Block{Start: k.ooo[0].seq, End: k.ooo[0].seq + k.ooo[0].size}
	for _, s := range k.ooo[1:] {
		if s.seq <= cur.End {
			if e := s.seq + s.size; e > cur.End {
				cur.End = e
			}
			continue
		}
		dst = append(dst, cur)
		if len(dst) == netem.MaxSackBlocks {
			return dst
		}
		cur = netem.Block{Start: s.seq, End: s.seq + s.size}
	}
	return append(dst, cur)
}

// ackTap is the end of the Sink's reverse route: it keeps a copy of each
// ACK's report and recycles the ACK, as Src does.
type ackTap struct {
	n    int
	seq  int64
	sack []netem.Block
}

func (a *ackTap) Recv(p *netem.Packet) {
	a.n++
	a.seq = p.Seq
	a.sack = a.sack[:0]
	for i := range p.SackLen() {
		a.sack = append(a.sack, p.SackBlock(i))
	}
	p.Free()
}

// sinkUnit is the program's byte grid: offsets and sizes are multiples of it.
const sinkUnit = 100

// arrival encodes one step: a segment starting off units above (below, if
// negative) the cumulative ACK, size units long.
func arrival(off, size int, retx bool) []byte {
	b := []byte{byte(off + 16), byte(size - 1), 0}
	if retx {
		b[2] = 1
	}
	return b
}

func sinkProgram(delayedAck bool, steps ...[]byte) []byte {
	prog := []byte{0}
	if delayedAck {
		prog[0] = 1
	}
	return append(prog, slices.Concat(steps...)...)
}

// runSinkProgram interprets prog — a header byte (bit 0: delayed ACKs) and
// three bytes per arrival — and returns which cases it reached.
func runSinkProgram(t testing.TB, prog []byte) map[string]int {
	cover := make(map[string]int)
	if len(prog) == 0 {
		return cover
	}
	s := sim.New(1)
	pool := netem.PoolFor(s)
	tap := &ackTap{}
	sink := NewSink(s)
	sink.SetRoute(netem.NewRoute(tap))
	toSink := netem.NewRoute(sink)
	delayed := prog[0]&1 == 1
	if delayed {
		sink.EnableDelayedAck()
	}
	ref := &segSink{}
	held := false // the reference's delayed-ACK state: one in-order segment unacknowledged
	var want []netem.Block

	for pc := 1; pc+3 <= len(prog); pc += 3 {
		seq := ref.cumAck + int64(int(prog[pc])-16)*sinkUnit
		size := int64(prog[pc+1]%16+1) * sinkUnit
		retx := prog[pc+2]&1 == 1
		if seq < 0 {
			seq = 0
		}

		before, buffered := ref.cumAck, len(ref.ooo)
		for _, g := range ref.ooo {
			if g.seq == seq && size > g.size {
				cover["longer duplicate of a buffered seq"]++
			}
		}
		ref.recv(seq, size)
		switch {
		case ref.cumAck > before && buffered > 0 && len(ref.ooo) < buffered:
			cover["arrival drains buffered ranges"]++
		case ref.cumAck == before && seq+size <= before:
			cover["duplicate below the cumulative ACK"]++
		}
		want = ref.appendSackBlocks(want[:0])
		if n := len(ref.ooo); len(want) == netem.MaxSackBlocks && ref.ooo[n-1].seq > want[len(want)-1].End {
			cover["report cut at the block limit"]++
		}
		// Recv's delayed-ACK rule: hold back the first of every two in-order,
		// first-transmission segments that leave nothing buffered.
		expectAck := true
		if delayed && ref.cumAck > before && len(ref.ooo) == 0 && !retx && !held {
			expectAck = false
			cover["ACK held back"]++
		}
		held = !expectAck

		acks := tap.n
		p := pool.NewData(1, seq, int(size), s.Now(), toSink)
		p.Retx = retx
		p.SendOn()

		if sink.CumAck() != ref.cumAck || sink.GoodputBytes() != ref.bytes {
			t.Fatalf("step %d [%d,%d): CumAck %d GoodputBytes %d, reference %d %d",
				pc/3, seq, seq+size, sink.CumAck(), sink.GoodputBytes(), ref.cumAck, ref.bytes)
		}
		if got := tap.n - acks; got != 0 && got != 1 || (got == 1) != expectAck {
			t.Fatalf("step %d [%d,%d) retx=%v: %d ACKs emitted, reference expects ack=%v", pc/3, seq, seq+size, retx, got, expectAck)
		}
		if expectAck && (tap.seq != ref.cumAck || !slices.Equal(tap.sack, want)) {
			t.Fatalf("step %d [%d,%d): ACK %d with SACK %v, reference %d %v",
				pc/3, seq, seq+size, tap.seq, tap.sack, ref.cumAck, want)
		}
		ooo := rangesOf(&sink.ooo)
		for i, b := range ooo {
			if b.Start <= sink.cumAck || b.End <= b.Start || (i > 0 && ooo[i-1].End >= b.Start) {
				t.Fatalf("step %d: reorder buffer %v above %d is not ascending, disjoint and non-touching", pc/3, ooo, sink.cumAck)
			}
		}
	}

	// A held-back ACK leaves when the delayed-ACK timer fires.
	acks := tap.n
	s.Run()
	if (tap.n-acks == 1) != held || (held && (tap.seq != ref.cumAck || len(tap.sack) != 0)) {
		t.Fatalf("drain: %d ACKs (seq %d, SACK %v), reference held=%v cumAck %d", tap.n-acks, tap.seq, tap.sack, held, ref.cumAck)
	}
	if held {
		cover["delayed ACK left on the timer"]++
	}
	return cover
}

// sinkSeeds are hand-written programs, each with the case it must reach
// ("" for none beyond agreeing with the reference).
var sinkSeeds = []struct {
	name  string
	prog  []byte
	cover string
}{
	{"in order", sinkProgram(false, arrival(0, 15, false), arrival(0, 15, false), arrival(0, 7, false)), ""},
	{"in order, delayed ACKs", sinkProgram(true, arrival(0, 15, false), arrival(0, 15, false), arrival(0, 15, false)), "delayed ACK left on the timer"},
	{"one hole, then its retransmission", sinkProgram(true, arrival(0, 15, false), arrival(15, 15, false), arrival(30, 15, false), arrival(0, 15, true)), "arrival drains buffered ranges"},
	{"nine holes", sinkProgram(false,
		arrival(2, 1, false), arrival(4, 1, false), arrival(6, 1, false), arrival(8, 1, false), arrival(10, 1, false),
		arrival(12, 1, false), arrival(14, 1, false), arrival(16, 1, false), arrival(18, 1, false)),
		"report cut at the block limit"},
	{"duplicates, buffered and delivered", sinkProgram(false, arrival(0, 15, false), arrival(15, 15, false), arrival(15, 15, false), arrival(-15, 15, true)), "duplicate below the cumulative ACK"},
	{"partial overlaps", sinkProgram(false, arrival(10, 10, false), arrival(15, 10, false), arrival(5, 8, false), arrival(-5, 12, false)), "arrival drains buffered ranges"},
	{"segment bridging two ranges", sinkProgram(false, arrival(5, 5, false), arrival(20, 5, false), arrival(10, 10, false), arrival(0, 5, false)), "arrival drains buffered ranges"},
	{"segment swallowing three ranges", sinkProgram(false, arrival(4, 1, false), arrival(7, 1, false), arrival(10, 1, false), arrival(2, 16, false)), ""},
	{"longer duplicate of a buffered seq", sinkProgram(false, arrival(10, 3, false), arrival(10, 15, true), arrival(0, 10, false)), "longer duplicate of a buffered seq"},
}

func TestSinkReorderSeeds(t *testing.T) {
	for _, seed := range sinkSeeds {
		if cover := runSinkProgram(t, seed.prog); seed.cover != "" && cover[seed.cover] == 0 {
			t.Errorf("seed %q did not reach %q: %v", seed.name, seed.cover, cover)
		}
	}
}

func TestSinkReorderModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := make(map[string]int)
	for i := 0; i < 1500; i++ {
		prog := make([]byte, 1+3*(5+rng.Intn(120)))
		rng.Read(prog)
		// Uniform offsets reach 24 kB above the cumulative ACK and almost
		// never land on it, so the buffer only grows; pull most arrivals
		// near it, and some exactly onto it, so holes also fill.
		for pc := 1; pc < len(prog); pc += 3 {
			switch rng.Intn(4) {
			case 0:
				prog[pc] = 16
			case 1, 2:
				prog[pc] %= 64
			}
		}
		for k, v := range runSinkProgram(t, prog) {
			total[k] += v
		}
	}
	for _, c := range []string{
		"arrival drains buffered ranges",
		"duplicate below the cumulative ACK",
		"report cut at the block limit",
		"longer duplicate of a buffered seq",
		"ACK held back",
	} {
		if total[c] == 0 {
			t.Errorf("case %q never occurred in 1500 random programs", c)
		}
	}
	t.Log(total)
}

func FuzzSinkReorder(f *testing.F) {
	for _, seed := range sinkSeeds {
		f.Add(seed.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("longer programs add time, not cases")
		}
		runSinkProgram(t, prog)
	})
}
