package scenario_test

import (
	"context"
	"reflect"
	"testing"

	"mptcpsim/internal/campaign"
	"mptcpsim/internal/mptcp"
)

// fuzzAt is the fuzz population at campaign seed seed.
func fuzzAt(seed int64) *campaign.Spec {
	sp := campaign.Fuzz()
	sp.Seed = seed
	return sp
}

// TestGenSpecDeterministic pins the replay contract of the generated
// (sampled) fuzz specs: the same campaign seed and index always rebuild the
// identical spec.
func TestGenSpecDeterministic(t *testing.T) {
	sp := fuzzAt(42)
	for _, i := range []int{0, 1, 17, 199} {
		a, b := sp.SampleSpec(i), sp.SampleSpec(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("index %d: sampling not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(sp.SampleSpec(0), sp.SampleSpec(1)) {
		t.Fatal("consecutive indices generated identical specs")
	}
}

// TestGenSpecAlwaysValid quantifies over a broad index range: the fuzz
// population must never yield a spec the scenario validator rejects.
func TestGenSpecAlwaysValid(t *testing.T) {
	sp := fuzzAt(3)
	for i := 0; i < 500; i++ {
		s := sp.SampleSpec(i)
		if err := s.Validate(); err != nil {
			t.Fatalf("index %d: generated invalid spec: %v\n%+v", i, err, s)
		}
	}
}

// TestGenSpecSamplesSchedulers: the fuzz population must produce scheduler
// flows of every policy (and they must validate).
func TestGenSpecSamplesSchedulers(t *testing.T) {
	sp := fuzzAt(3)
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		s := sp.SampleSpec(i)
		if err := s.Validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v", i, err)
		}
		for _, f := range s.Flows {
			if f.Scheduler != "" {
				seen[f.Scheduler] = true
			}
		}
	}
	for _, name := range mptcp.Schedulers() {
		if !seen[name] {
			t.Errorf("400 generated specs never sampled scheduler %q", name)
		}
	}
}

// TestFuzzCampaignClean runs a moderate fuzz run end to end: every
// invariant must hold on every sampled scenario, including the re-run
// identity check.
func TestFuzzCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short")
	}
	rep, err := campaign.RunFuzz(context.Background(), campaign.FuzzOptions{N: 60, Seed: 11}, 0, nil)
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
// fuzz report is a pure function of (seed, N).
func TestFuzzWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short")
	}
	opts := campaign.FuzzOptions{N: 12, Seed: 5}
	seq, err := campaign.RunFuzz(context.Background(), opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := campaign.RunFuzz(context.Background(), opts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("campaign depends on worker count:\n%+v\n%+v", seq, par)
	}
}
