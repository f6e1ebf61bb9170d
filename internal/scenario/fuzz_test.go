package scenario

import (
	"context"
	"reflect"
	"testing"
)

// TestGenSpecDeterministic pins the replay contract: the same campaign
// seed and index always rebuild the identical spec.
func TestGenSpecDeterministic(t *testing.T) {
	for _, i := range []int{0, 1, 17, 199} {
		a, b := GenSpec(42, i), GenSpec(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("index %d: GenSpec not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(GenSpec(42, 0), GenSpec(42, 1)) {
		t.Fatal("consecutive indices generated identical specs")
	}
}

// TestGenSpecAlwaysValid quantifies over a broad index range: the
// generator must never emit a spec its own validator rejects.
func TestGenSpecAlwaysValid(t *testing.T) {
	for i := 0; i < 500; i++ {
		sp := GenSpec(3, i)
		if err := sp.Validate(); err != nil {
			t.Fatalf("index %d: generated invalid spec: %v\n%+v", i, err, sp)
		}
	}
}

// TestFuzzCampaignClean runs a moderate campaign end to end: every
// invariant must hold on every generated scenario, including the re-run
// identity check.
func TestFuzzCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short")
	}
	rep, err := Fuzz(context.Background(), FuzzOptions{N: 60, Seed: 11}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("%d scenarios violated invariants: %+v", len(rep.Failures), rep.Failures[0])
	}
	if rep.Events == 0 || rep.Flows == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
}

// TestFuzzWorkerIndependence locks determinism across worker counts: the
// campaign outcome is a pure function of (seed, N).
func TestFuzzWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short")
	}
	seq, err := Fuzz(context.Background(), FuzzOptions{N: 12, Seed: 5}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fuzz(context.Background(), FuzzOptions{N: 12, Seed: 5}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("campaign depends on worker count:\n%+v\n%+v", seq, par)
	}
}
