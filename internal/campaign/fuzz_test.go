package campaign

import (
	"context"
	"reflect"
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
)

// TestFuzzCensus: the first 200 scenarios of the fuzz population contain
// every shape it exists to draw — shared links and two-link paths, several
// multipath users, every controller, every scheduler, stops, finite
// transfers, jittered starts and every timeline kind — so a DSL edit that
// silently drops a shape fails here.
func TestFuzzCensus(t *testing.T) {
	sp := Fuzz()
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := sp.SampleSpec(i)
		crossings := make([]int, len(s.Links))
		for _, p := range s.Paths {
			if len(p.Links) > 1 {
				seen["two-link path"] = true
			}
			for _, l := range p.Links {
				crossings[l]++
			}
		}
		for _, n := range crossings {
			if n > 1 {
				seen["link shared by two paths"] = true
			}
		}
		users := 0
		for _, f := range s.Flows {
			if f.Algorithm == scenario.AlgoTCP {
				seen["tcp"] = true
			} else {
				users++
				seen["controller "+f.Algorithm] = true
			}
			if f.Scheduler != "" {
				seen["scheduler "+f.Scheduler] = true
			}
			seen["stop"] = seen["stop"] || f.StopSec > 0
			seen["finite transfer"] = seen["finite transfer"] || f.FlowBytes > 0
			seen["jittered start"] = seen["jittered start"] || f.StartJitter
		}
		seen["two multipath groups"] = seen["two multipath groups"] || users > 1
		for _, ev := range s.Timeline {
			switch ls := ev.Link; {
			case ev.Path != nil && ev.Path.Up:
				seen["flap up"] = true
			case ev.Path != nil:
				seen["flap down"] = true
			case ls.RateMbps > 0:
				seen["rate setpoint"] = true
			case ls.DelayMs != nil:
				seen["delay setpoint"] = true
			case *ls.LossPct == 100:
				seen["blackhole"] = true
			}
		}
	}
	want := []string{"two-link path", "link shared by two paths", "tcp", "two multipath groups",
		"stop", "finite transfer", "jittered start",
		"flap up", "flap down", "rate setpoint", "delay setpoint", "blackhole"}
	for _, a := range sp.Algorithms {
		want = append(want, "controller "+a)
	}
	for _, name := range mptcp.Schedulers() {
		want = append(want, "scheduler "+name)
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("200 fuzz scenarios drew no %s", w)
		}
	}
}

// fuzzAt is the fuzz population at campaign seed seed.
func fuzzAt(seed int64) *Spec {
	sp := Fuzz()
	sp.Seed = seed
	return sp
}

// TestFuzzSampleReplays pins the replay contract of the fuzz population:
// the same campaign seed and index always rebuild the identical scenario,
// and another index another one.
func TestFuzzSampleReplays(t *testing.T) {
	sp := fuzzAt(42)
	for _, i := range []int{0, 1, 17, 199} {
		a, b := sp.SampleSpec(i), sp.SampleSpec(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("index %d: sampling not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(sp.SampleSpec(0), sp.SampleSpec(1)) {
		t.Fatal("consecutive indices sampled identical scenarios")
	}
}

// TestFuzzSamplesValidate quantifies over a broad index range: the fuzz
// population must never yield a scenario the scenario validator rejects.
func TestFuzzSamplesValidate(t *testing.T) {
	sp := fuzzAt(3)
	for i := 0; i < 500; i++ {
		s := sp.SampleSpec(i)
		if err := s.Validate(); err != nil {
			t.Fatalf("index %d: sampled invalid scenario: %v\n%+v", i, err, s)
		}
	}
}

// TestFuzzRerunIdentical is the fuzz population's determinism check, on
// the 200 scenarios `mptcpsim conform` runs and 200 more: every scenario
// keeps every invariant, and a second run of it is byte-identical — the
// same RunReport.Digest.
func TestFuzzRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 11} {
		sp := fuzzAt(seed)
		for i := 0; i < sp.N; i++ {
			spec := sp.SampleSpec(i)
			r1, err := scenario.Run(ctx, spec)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, spec.Name, err)
			}
			if len(r1.Violations) > 0 {
				t.Errorf("seed %d, %s: %v", seed, spec.Name, r1.Violations)
			}
			r2, err := scenario.Run(ctx, spec)
			if err != nil {
				t.Fatalf("seed %d, %s: re-run: %v", seed, spec.Name, err)
			}
			if d1, d2 := r1.Digest(), r2.Digest(); d1 != d2 {
				t.Errorf("seed %d, %s: re-run not identical: processed %d traffic %x vs processed %d traffic %x",
					seed, spec.Name, d1.Processed, d1.Traffic[:6], d2.Processed, d2.Traffic[:6])
			}
		}
	}
}
