package scenario_test

import (
	"context"
	"reflect"
	"testing"

	"mptcpsim/internal/campaign"
)

// fuzzAt is the first n scenarios of the fuzz population at campaign seed
// seed.
func fuzzAt(n int, seed int64) *campaign.Spec {
	sp := campaign.Fuzz()
	sp.N, sp.Seed = n, seed
	return sp
}

// TestFuzzCampaignClean runs a moderate fuzz campaign end to end: every
// invariant must hold on every sampled scenario.
func TestFuzzCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short")
	}
	res, err := campaign.Run(context.Background(), fuzzAt(60, 11), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations > 0 {
		t.Fatalf("%d invariant violations, in %v", res.Violations, res.Flagged)
	}
	if ev := res.Aggregates[len(res.Aggregates)-1]; res.Simulated != 60 || ev.Metric != "events_processed" || ev.Min == 0 {
		t.Fatalf("campaign ran nothing: %+v", res)
	}
}

// TestFuzzWorkerIndependence locks determinism across worker counts: the
// fuzz campaign's result is a pure function of (seed, N).
func TestFuzzWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short")
	}
	sp := fuzzAt(12, 5)
	seq, err := campaign.Run(context.Background(), sp, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := campaign.Run(context.Background(), sp, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("campaign depends on worker count:\n%+v\n%+v", seq, par)
	}
}
