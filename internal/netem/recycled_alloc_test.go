//go:build !race

// The race detector drops a quarter of sync.Pool puts at random, so under
// -race a list may find no spare array where a finished run left one; the
// allocation locks run without it.

package netem

import (
	"runtime"
	"testing"
)

// TestRecycledRangesBytes locks what a bound list costs once a run before
// it handed its storage back: 64 disjoint inserts into a list bound to a
// new pool, ascending or each below the last, allocate nothing when a
// list of the same growth was bound to a pool that Release ended.
func TestRecycledRangesBytes(t *testing.T) {
	grow := func(r *Ranges, step int64) {
		for i := int64(0); i < 64; i++ {
			r.Insert(Block{Start: step * i, End: step*i + 1})
		}
	}
	for _, step := range []int64{3, -3} {
		var used Ranges
		pl := new(PacketPool)
		used.Bind(pl)
		grow(&used, step)
		pl.Release()

		var r Ranges
		r.Bind(new(PacketPool))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		grow(&r, step)
		runtime.ReadMemStats(&after)
		if r.Len() != 64 {
			t.Fatalf("step %d: %d ranges, want 64", step, r.Len())
		}
		if n := after.TotalAlloc - before.TotalAlloc; n != 0 {
			t.Errorf("step %d: 64 inserts into a list on handed-back arrays allocated %d bytes, want 0", step, n)
		}
	}
}
