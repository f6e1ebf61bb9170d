//go:build !race

// The race detector drops a quarter of sync.Pool puts at random, so under
// -race a hit refills its scratch from scratch and these counts mean
// nothing; the allocation locks run without it.

package campaign

import (
	"context"
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
