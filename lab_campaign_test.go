package mptcpsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"

	"mptcpsim/internal/campaign"
)

// tinyCampaign is a fast campaign population for facade tests.
func tinyCampaign() CampaignSpec {
	sp := *DefaultCampaign()
	sp.Name = "facade-tiny"
	sp.N = 8
	sp.WarmupSec = DistConst(1)
	sp.DurationSec = DistUniform(1.2, 1.8)
	sp.LinkRateMbps = DistLogUniform(1, 4)
	return sp
}

// TestDistConstructors: each facade distribution constructor builds what
// its campaign constructor builds, and a spec drawing a link rate from it
// validates.
func TestDistConstructors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want CampaignDist
	}{
		{"DistConst", DistConst(4), campaign.Const(4)},
		{"DistUniform", DistUniform(1, 4), campaign.Uniform(1, 4)},
		{"DistLogUniform", DistLogUniform(1, 16), campaign.LogUniform(1, 16)},
		{"DistChoice", DistChoice(2, 8, 32), campaign.Choice(2, 8, 32)},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %+v, want %+v", tc.name, tc.got, tc.want)
		}
		sp := tinyCampaign()
		sp.LinkRateMbps = tc.got
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestVersionShape(t *testing.T) {
	v := Version()
	if !regexp.MustCompile(`^api-[0-9a-f]{12}$`).MatchString(v) {
		t.Fatalf("Version() = %q, want api-<12 hex chars>", v)
	}
	if Version() != v {
		t.Fatal("Version() is not stable across calls")
	}
}

func TestLabCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	sp := tinyCampaign()
	sp.CacheDir = t.TempDir()
	lab := NewLab(WithWorkers(4))
	res, err := lab.Campaign(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated != sp.N || res.CacheHits != 0 {
		t.Fatalf("cold campaign: simulated %d / hits %d, want %d / 0", res.Simulated, res.CacheHits, sp.N)
	}
	if res.Version != Version() {
		t.Fatalf("result version %q, want %q", res.Version, Version())
	}
	warm, err := lab.Campaign(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != sp.N {
		t.Fatalf("warm campaign: simulated %d / hits %d, want 0 / %d", warm.Simulated, warm.CacheHits, sp.N)
	}
	if warm.Digest() != res.Digest() {
		t.Fatalf("warm digest %s differs from cold %s", warm.Digest(), res.Digest())
	}
}

func TestLabCampaignTypedErrors(t *testing.T) {
	lab := NewLab()
	bad := tinyCampaign()
	bad.Algorithms = []string{"nope"}
	_, err := lab.Campaign(context.Background(), bad)
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("invalid campaign spec returned %v, want ErrInvalidSpec", err)
	}
	var e *Error
	if !errors.As(err, &e) || e.Op != "campaign" {
		t.Fatalf("boundary error %v, want *Error with Op campaign", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = lab.Campaign(ctx, tinyCampaign())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestProgressSerialized enforces the WithProgress contract: the Lab
// delivers progress events one at a time, so a sink needs no locking of
// its own. The sink checks for overlapping invocations with an atomic
// in-flight counter while an 8-worker campaign hammers it.
func TestProgressSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	var inFlight, overlaps, calls atomic.Int64
	lab := NewLab(WithWorkers(8), WithProgress(func(ev ProgressEvent) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		calls.Add(1)
		inFlight.Add(-1)
	}))
	if _, err := lab.Campaign(context.Background(), tinyCampaign()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress sink never invoked")
	}
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("progress sink ran concurrently %d times; WithProgress promises serialized delivery", n)
	}
}

// goroutineID reads the running goroutine's number off its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestProgressContract: every engine behind a Lab method counts progress
// where it folds results, so all of them report it the same way — (0, total)
// first, then Done up by exactly one per event with the total unchanged,
// ending at (total, total) — and always on the goroutine that called the
// method, at any worker count. A collection (the conform command's
// "conformance" table) brackets its job events with its experiment's start
// and finish. The sink appends to events without a lock, so under -race a
// call from a worker is also a reported data race.
func TestProgressContract(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	calls := []struct {
		name string
		// experiment is the experiment a collection reports on, if any.
		experiment string
		// run makes the call and returns the number of jobs it had.
		run func(lab *Lab) (int, error)
	}{
		{"campaign", "", func(lab *Lab) (int, error) {
			sp := tinyCampaign()
			_, err := lab.Campaign(context.Background(), sp)
			return sp.N, err
		}},
		{"fuzz", "", func(lab *Lab) (int, error) {
			_, err := lab.Campaign(context.Background(), fuzzCampaign(12, 3))
			return 12, err
		}},
		{"conform", "conformance", func(lab *Lab) (int, error) {
			r, err := lab.Collect(context.Background(), "conformance")
			if err != nil {
				return 0, err
			}
			return len(r.Rows) * lab.Config().Seeds, nil
		}},
	}
	for _, c := range calls {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/j%d", c.name, workers), func(t *testing.T) {
				caller := goroutineID()
				var events []ProgressEvent
				lab := NewLab(WithConfig(quickCfg()), WithWorkers(workers), WithProgress(func(ev ProgressEvent) {
					if g := goroutineID(); g != caller {
						t.Errorf("sink ran on goroutine %s, the call was made on %s", g, caller)
					}
					events = append(events, ev)
				}))
				total, err := c.run(lab)
				if err != nil {
					t.Fatal(err)
				}
				if c.experiment != "" {
					start := ProgressEvent{Kind: ProgressExperimentStarted, Experiment: c.experiment}
					finish := ProgressEvent{Kind: ProgressExperimentFinished, Experiment: c.experiment}
					if len(events) < 2 || events[0] != start || events[len(events)-1] != finish {
						t.Fatalf("events %+v do not open with %+v and close with %+v", events, start, finish)
					}
					events = events[1 : len(events)-1]
				}
				if len(events) != total+1 {
					t.Fatalf("%d events for %d jobs, want %d: %+v", len(events), total, total+1, events)
				}
				for i, ev := range events {
					if want := (ProgressEvent{Kind: ProgressJobs, Done: i, Total: total}); ev != want {
						t.Fatalf("event %d is %+v, want %+v", i, ev, want)
					}
				}
			})
		}
	}
}
