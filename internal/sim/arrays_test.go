package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// onNewArrays gives s a new ring, far-heap and free-list arrays, as New
// makes them when no finished run has handed any back.
func onNewArrays(s *Sim) *Sim {
	a := arrayPool.New().(*kernelArrays)
	s.run, s.far, s.free, s.arrays = &a.run, a.far, a.free, a
	return s
}

// TestRecycledKernelArrays: ReleaseRand hands the run's ring, far-heap and
// free-list arrays back with every slot cleared and leaves Pending and
// Stats at the finished run's values, and a Sim that New builds on those
// arrays replays a queue program with the same (time, seq) pop order,
// Processed, Pending and Stats().HeapMax as a Sim on new arrays. It runs
// at smallRunCap, so that the far heap grows.
func TestRecycledKernelArrays(t *testing.T) {
	withRunCap(t, smallRunCap)
	rng := rand.New(rand.NewSource(43))
	taken, grown, left := 0, 0, 0
	for i := range 300 {
		prog := make([]byte, 20+rng.Intn(400))
		rng.Read(prog)
		if i%2 == 0 {
			// Queue 40 events first, so the far heap outgrows its first array.
			var fill []byte
			for j := range 40 {
				fill = append(fill, 0, 0, byte(j))
			}
			prog = append(fill, prog...)
		}
		fresh := playQueueProgram(t, onNewArrays(New(1)), prog)
		a := fresh.s
		pending, high, processed := a.Pending(), a.Stats().HeapMax, a.Processed()
		h, heapCap, freeCap := a.arrays, cap(a.far), cap(a.free)
		a.ReleaseRand()
		if a.Pending() != pending || a.Stats().HeapMax != high || a.Processed() != processed {
			t.Fatalf("program %d: after ReleaseRand %d pending, high water %d, %d processed; before it %d, %d and %d",
				i, a.Pending(), a.Stats().HeapMax, a.Processed(), pending, high, processed)
		}
		if a.run != nil || a.far != nil || a.free != nil || a.arrays != nil {
			t.Fatalf("program %d: a released Sim still holds its arrays", i)
		}
		// New takes spare arrays in whatever order the pool gives them;
		// under -race the pool may have dropped these.
		var b *Sim
		for range 64 {
			if s := New(1); s.arrays == h {
				b = s
				break
			}
		}
		if b == nil {
			continue
		}
		taken++
		if heapCap > slabEvents {
			grown++
		}
		if pending > 0 {
			left++
		}
		if b.run != &h.run || cap(b.far) != heapCap || cap(b.free) != freeCap || len(b.far) != 0 || len(b.free) != 0 {
			t.Fatalf("program %d: New on handed-back arrays: far heap %d of %d, free list %d of %d; want 0 of %d and 0 of %d",
				i, len(b.far), cap(b.far), len(b.free), cap(b.free), heapCap, freeCap)
		}
		for j, x := range append(b.run[:], b.far[:heapCap]...) {
			if x != (slot{}) {
				t.Fatalf("program %d: handed-back ring or far-heap slot %d holds %+v", i, j, x)
			}
		}
		for j, e := range b.free[:freeCap] {
			if e != nil {
				t.Fatalf("program %d: handed-back free-list slot %d holds %p", i, j, e)
			}
		}
		again := playQueueProgram(t, b, prog)
		if !slices.Equal(again.pops, fresh.pops) {
			t.Fatalf("program %d: on handed-back arrays events fired as\n%v\non new arrays as\n%v", i, again.pops, fresh.pops)
		}
		if b.Processed() != processed || b.Pending() != pending || b.Stats().HeapMax != high {
			t.Fatalf("program %d: on handed-back arrays %d processed, %d pending, high water %d; on new arrays %d, %d and %d",
				i, b.Processed(), b.Pending(), b.Stats().HeapMax, processed, pending, high)
		}
	}
	if taken < 100 || grown == 0 || left == 0 {
		t.Fatalf("New took the arrays a run handed back for %d of 300 programs, %d of them grown past a slab, %d with events left queued", taken, grown, left)
	}
	t.Logf("%d of 300 programs replayed on handed-back arrays, %d of them grown past a slab, %d with events left queued", taken, grown, left)
}
