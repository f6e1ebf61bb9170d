package campaign

import (
	"context"
	"strings"
	"sync/atomic"
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

// TestRunFuzzFlagsNonIdentical: a scenario whose re-run differs is a
// failure named by its index and replay name, and one whose run fails is
// too; the others are clean.
func TestRunFuzzFlagsNonIdentical(t *testing.T) {
	var calls atomic.Int64
	t.Cleanup(func() { simulate = scenario.Run })
	simulate = func(ctx context.Context, spec *scenario.Spec) (*scenario.RunReport, error) {
		rep := &scenario.RunReport{Name: spec.Name, Processed: 10}
		switch spec.Name {
		case "fuzz-1":
			rep.Processed += uint64(calls.Add(1)) // each run differs
		case "fuzz-2":
			return nil, context.DeadlineExceeded
		}
		return rep, nil
	}
	rep, err := RunFuzz(context.Background(), FuzzOptions{N: 4, Seed: 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("failures %+v, want scenarios 1 and 2", rep.Failures)
	}
	for k, want := range []string{"re-run not identical", "run failed"} {
		f := rep.Failures[k]
		if f.Index != k+1 || f.Name != Fuzz().SampleSpec(k+1).Name || !strings.HasPrefix(f.Violations[0], want) {
			t.Errorf("failure %d: %+v, want scenario %d: %s", k, f, k+1, want)
		}
	}
}
