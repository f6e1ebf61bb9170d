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

// maxHitAllocs is what a warm hit may allocate, on average: its
// scenario's name, plus its share of the campaign's fixed cost (stream,
// aggregators, sketches, result, and opening the pack and reading its
// bounds) and of the decoded strings a recycled report does not already
// hold. A hit is a slice of a block its job read with one positional read
// on the pack the Run opened once, into a pooled buffer, so it allocates
// no path, no C string and no buffer. It is 1.32, measured when each hit
// was a read of its own, plus 0.2; reading in blocks measures 1.35.
const maxHitAllocs = 1.52

// maxHitBytes is the heap bytes those allocations may add up to, per hit:
// the measured 261.4 plus 3 %.
const maxHitBytes = 269.0

// TestWarmHitAllocs locks the allocations of a fully warm campaign: a
// 200-scenario cache is filled, and re-running the campaign against it
// allocates at most maxHitAllocs objects and maxHitBytes bytes per
// scenario.
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
	var before, after runtime.MemStats
	allocs := testing.AllocsPerRun(1, func() {
		runtime.ReadMemStats(&before)
		if warm, err = Run(context.Background(), sp, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	})
	if warm.CacheHits != sp.N || warm.Digest() != cold.Digest() {
		t.Fatalf("warm run: %d of %d hits, digest equal %v", warm.CacheHits, sp.N, warm.Digest() == cold.Digest())
	}
	if perHit := allocs / float64(sp.N); perHit > maxHitAllocs {
		t.Errorf("%.0f allocations over %d hits, %.2f per hit, want at most %.2f", allocs, sp.N, perHit, maxHitAllocs)
	} else {
		t.Logf("%.0f allocations over %d hits, %.2f per hit", allocs, sp.N, perHit)
	}
	// The last call of the closure is the measured run.
	if perHit := float64(after.TotalAlloc-before.TotalAlloc) / float64(sp.N); perHit > maxHitBytes {
		t.Errorf("%.1f bytes per hit, want at most %.0f", perHit, maxHitBytes)
	} else {
		t.Logf("%.1f bytes per hit (%d in all)", perHit, after.TotalAlloc-before.TotalAlloc)
	}
}

// maxColdAllocs is what a simulated scenario of Default() may allocate, on
// average: its network (links, flows, routes, timers), its event slabs,
// its report, and its share of the campaign's fixed cost. It is the
// measured 112.6 plus 0.2.
const maxColdAllocs = 112.8

// maxColdBytes is the heap bytes those allocations may add up to, per
// scenario: the measured 8 045 plus 3 %. The run's work counters, the
// Sim's and the report's Stats, since cost 192 more and a smaller
// mptcp.Subflow gave 35 back: 8 199 measured. Every run hands its packet slabs,
// its range lists' arrays, its kernel's queue and free-list arrays and its
// generator back for the runs after it, so a run that keeps its slabs
// (29 082 bytes a scenario when each run carved its own), its range lists'
// or kernel's arrays (2 671 bytes a scenario when each run allocated its
// own), its 5 376-byte generator, a packet or SACK report that grows, or a
// range list that widens fails here.
const maxColdBytes = 8286.0

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
