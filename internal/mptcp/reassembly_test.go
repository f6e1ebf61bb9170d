package mptcp

import (
	"testing"

	"mptcpsim/internal/sim"
)

// Model-based test of the stream's data-level reassembly, the twin of
// tcp's FuzzSinkReorder. A byte string is a program: its first byte sizes
// the stream, then each pair of bytes is one delivered span (start, length),
// in any order and with any duplication, as redundant scheduling and
// reinjection deliver them. The interpreter feeds each span to a real
// Stream's emit and marks it in a flat byte bitmap, and after every span
// requires the stream's InOrderBytes, DeliveredBytes and Done to be what
// the bitmap says: the first unmarked byte, the marked count, and whether
// every byte is marked.

// reassemblyProgram builds a program: the stream size, then (start, length)
// spans.
func reassemblyProgram(total byte, spans ...[2]byte) []byte {
	prog := []byte{total}
	for _, sp := range spans {
		prog = append(prog, sp[0], sp[1])
	}
	return prog
}

// runReassembly interprets prog and fails t on the first disagreement.
func runReassembly(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) == 0 {
		return
	}
	total := 1 + int64(prog[0])
	st := bareStream(t, total)
	completions := 0
	st.OnComplete = func(*Stream) { completions++ }
	marked := make([]bool, total)
	for pc := 1; pc+1 < len(prog); pc += 2 {
		start := int64(prog[pc]) % total
		end := min(start+1+int64(prog[pc+1]%32), total)
		st.emit(dataSpan{start, end})
		for b := start; b < end; b++ {
			marked[b] = true
		}

		var inOrder, delivered int64
		for inOrder < total && marked[inOrder] {
			inOrder++
		}
		for _, m := range marked {
			if m {
				delivered++
			}
		}
		if st.InOrderBytes() != inOrder || st.DeliveredBytes() != delivered || st.Done() != (inOrder == total) {
			t.Fatalf("after span [%d, %d) of a %d-byte stream: in-order %d, delivered %d, done %v; the bytes say %d, %d, %v",
				start, end, total, st.InOrderBytes(), st.DeliveredBytes(), st.Done(), inOrder, delivered, inOrder == total)
		}
		want := 0
		if st.Done() {
			want = 1
		}
		if completions != want {
			t.Fatalf("OnComplete fired %d times, want %d (done %v)", completions, want, st.Done())
		}
	}
}

// reassemblySeeds are hand-written programs for the shapes the scheduler
// and reinjection produce.
var reassemblySeeds = [][]byte{
	reassemblyProgram(99, [2]byte{0, 31}, [2]byte{32, 31}, [2]byte{64, 31}, [2]byte{96, 3}),                      // in order
	reassemblyProgram(99, [2]byte{96, 3}, [2]byte{64, 31}, [2]byte{32, 31}, [2]byte{0, 31}),                      // reverse order
	reassemblyProgram(63, [2]byte{0, 31}, [2]byte{0, 31}, [2]byte{32, 31}, [2]byte{32, 31}),                      // redundant duplicates
	reassemblyProgram(63, [2]byte{10, 4}, [2]byte{30, 4}, [2]byte{15, 14}, [2]byte{0, 9}, [2]byte{35, 28}),       // a span bridging two
	reassemblyProgram(63, [2]byte{4, 0}, [2]byte{7, 0}, [2]byte{10, 0}, [2]byte{2, 15}, [2]byte{0, 31}),          // a span swallowing three
	reassemblyProgram(63, [2]byte{20, 9}, [2]byte{25, 9}, [2]byte{15, 9}, [2]byte{0, 31}, [2]byte{10, 31}),       // partial overlaps, reinjected tail
	reassemblyProgram(200, [2]byte{150, 31}, [2]byte{0, 31}, [2]byte{100, 31}, [2]byte{50, 31}, [2]byte{200, 0}), // holes filled out of order
}

func FuzzStreamReassembly(f *testing.F) {
	for _, prog := range reassemblySeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("longer programs add time, not cases")
		}
		runReassembly(t, prog)
	})
}

// TestStreamReassemblyModel runs random programs, spans drawn near the
// in-order point more often than not so holes fill as well as open.
func TestStreamReassemblyModel(t *testing.T) {
	rng := sim.NewRand(7)
	for i := 0; i < 2000; i++ {
		prog := make([]byte, 1+2*(1+rng.Intn(60)))
		rng.Read(prog)
		for pc := 1; pc < len(prog); pc += 2 {
			if rng.Intn(2) == 0 {
				prog[pc] %= 48
			}
		}
		runReassembly(t, prog)
	}
}
