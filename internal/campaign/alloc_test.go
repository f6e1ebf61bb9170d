//go:build !race

// The race detector drops a quarter of sync.Pool puts at random, so under
// -race a job refills its scratch from scratch and these counts mean
// nothing; the allocation locks run without it.

package campaign

import (
	"context"
	"runtime"
	"testing"
)

// maxHitAllocs is what a warm hit may allocate: its scenario's name, its
// entry's path, and the C string opening the path takes, plus its share of
// the campaign's fixed cost (stream, aggregators, sketches, result) and of
// the decoded strings a recycled report does not already hold.
const maxHitAllocs = 5

// TestWarmHitAllocs locks the allocations of a fully warm campaign: a
// 200-scenario cache is filled, and re-running the campaign against it
// allocates at most maxHitAllocs per scenario.
func TestWarmHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := Default()
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 2, Version: "test"}
	cold, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	var warm *Result
	allocs := testing.AllocsPerRun(1, func() {
		if warm, err = Run(context.Background(), sp, opts); err != nil {
			t.Fatal(err)
		}
	})
	if warm.CacheHits != sp.N || warm.Digest() != cold.Digest() {
		t.Fatalf("warm run: %d of %d hits, digest equal %v", warm.CacheHits, sp.N, warm.Digest() == cold.Digest())
	}
	if perHit := allocs / float64(sp.N); perHit > maxHitAllocs {
		t.Errorf("%.0f allocations over %d hits, %.2f per hit, want at most %d", allocs, sp.N, perHit, maxHitAllocs)
	} else {
		t.Logf("%.0f allocations over %d hits, %.2f per hit", allocs, sp.N, perHit)
	}
}

// maxColdAllocs is what a simulated scenario of Default() may allocate, on
// average: its network (links, flows, routes, timers), its packet and event
// slabs, the range lists its receivers and senders grow, its report, and
// its share of the campaign's fixed cost. It is the measured 137.12 plus
// 0.2.
const maxColdAllocs = 137.3

// maxColdBytes is the heap bytes those allocations may add up to, per
// scenario: the measured 29 082 plus 3 %. Packet slabs are three fifths of
// it, so a packet or SACK report that grows, a slab pushed into a larger
// size class, a run that keeps its 5 376-byte generator or a range list
// that widens fails here.
const maxColdBytes = 29955.0

// TestColdRunAllocs locks the allocations of an uncached campaign: every
// scenario of Default() (N = 200) is simulated, and the run allocates at
// most maxColdAllocs objects and maxColdBytes bytes per scenario.
func TestColdRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := Default()
	opts := Options{Workers: 2, Version: "test"}
	var res *Result
	var err error
	var before, after runtime.MemStats
	allocs := testing.AllocsPerRun(1, func() {
		runtime.ReadMemStats(&before)
		if res, err = Run(context.Background(), sp, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	})
	if res.Simulated != sp.N {
		t.Fatalf("cold run simulated %d of %d scenarios", res.Simulated, sp.N)
	}
	if perRun := allocs / float64(sp.N); perRun > maxColdAllocs {
		t.Errorf("%.0f allocations over %d scenarios, %.2f per scenario, want at most %.1f", allocs, sp.N, perRun, maxColdAllocs)
	} else {
		t.Logf("%.0f allocations over %d scenarios, %.2f per scenario", allocs, sp.N, perRun)
	}
	// The last call of the closure is the measured run.
	if perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(sp.N); perRun > maxColdBytes {
		t.Errorf("%.0f bytes per scenario, want at most %.0f", perRun, maxColdBytes)
	} else {
		t.Logf("%.0f bytes per scenario", perRun)
	}
}
