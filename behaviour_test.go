package mptcpsim

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mptcpsim/internal/campaign"
	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

var updateLock = flag.Bool("update", false, "rewrite behaviour.lock from this run (make lock)")

// lockHeader opens behaviour.lock; Version() hashes the whole file, this
// text included.
const lockHeader = `# behaviour.lock: the simulator's behaviour on a fixed canary set, one line
# per canary: name, events processed, then 12-hex prefixes of the run's
# Digest.Traffic (the SHA-256 of its report's identity section) and of the
# SHA-256 of the canary's scenario.AppendSpec encoding. Version() hashes
# this file with api.txt, so a change that
# moves any line is a new version and misses every cache entry the old one
# filled. Regenerate with "make lock" and explain the delta.
`

// behaviourCanary is one locked run: a Spec to compile.
type behaviourCanary struct {
	name string
	spec *scenario.Spec
}

// behaviourCanaries is the fixed canary set, each at most 10 simulated
// seconds: every controller × scheduler × queue kind, a fault timeline, the
// four testbed builders, a k = 4 fat tree, a lossy stream whose size is not
// a multiple of the MSS, a stream whose senders' windows are capped, and the
// reference campaign's first eight samples.
func behaviourCanaries() []behaviourCanary {
	var out []behaviourCanary
	spec := func(sp *scenario.Spec) { out = append(out, behaviourCanary{name: sp.Name, spec: sp}) }

	for _, algo := range core.Names() {
		for _, sched := range append([]string{""}, mptcp.Schedulers()...) {
			for _, q := range []scenario.QueueKind{scenario.QueueRED, scenario.QueueDropTail} {
				mp := scenario.FlowSpec{Name: "mp", Algorithm: algo, Paths: []int{0, 1}, StartJitter: true}
				if sched != "" {
					mp.Scheduler, mp.FlowBytes, mp.ChunkBytes = sched, 3_000_000, 4_000
				}
				spec(&scenario.Spec{
					Name: fmt.Sprintf("matrix/%s/%s/%s", algo, cmp.Or(sched, "-"), q), Seed: 3,
					WarmupSec: 1, DurationSec: 5, ReverseDelayMs: 5,
					Links: []scenario.LinkSpec{{RateMbps: 4, Queue: q}, {RateMbps: 8, Queue: q}},
					Paths: []scenario.PathSpec{{Links: []int{0}, DelayMs: 5}, {Links: []int{1}, DelayMs: 25}},
					Flows: []scenario.FlowSpec{mp,
						{Name: "bg", Algorithm: scenario.AlgoTCP, Paths: []int{0}, StartJitter: true}},
				})
			}
		}
	}

	spec(&scenario.Spec{
		Name: "faults", Seed: 5, WarmupSec: 1, DurationSec: 5,
		Links: []scenario.LinkSpec{{RateMbps: 6}, {RateMbps: 6, Queue: scenario.QueueDropTail, LossPct: 0.5}},
		Paths: []scenario.PathSpec{{Links: []int{0}, DelayMs: 20}, {Links: []int{1}, DelayMs: 20}},
		Flows: []scenario.FlowSpec{
			{Name: "mp", Algorithm: "olia", Paths: []int{0, 1}, StartJitter: true},
			{Name: "st", Algorithm: "lia", Paths: []int{0, 1}, FlowBytes: 2_000_000, Scheduler: "minrtt"},
			{Name: "bg", Algorithm: scenario.AlgoTCP, Paths: []int{1}, Count: 2, StartJitter: true},
		},
		Timeline: []scenario.TimelineEvent{
			{AtSec: 1.5, Link: &scenario.LinkSetpoint{Link: 0, RateMbps: 2}},
			{AtSec: 2, Path: &scenario.PathFlap{Path: 1}},
			{AtSec: 2.5, Link: &scenario.LinkSetpoint{Link: 0, LossPct: Float(100)}},
			{AtSec: 3, Path: &scenario.PathFlap{Path: 1, Up: true}},
			{AtSec: 3.5, Link: &scenario.LinkSetpoint{Link: 0, LossPct: Float(0), DelayMs: Float(5)}},
			{AtSec: 4, Link: &scenario.LinkSetpoint{Link: 1, RateMbps: 12, LossPct: Float(2)}},
		},
	})

	spec(scenario.PaperScenarioA(3, 2, 2, 4, "lia", 1, 1, 5))
	spec(scenario.PaperScenarioB(2, 6, 6, "olia", true, 2, 1, 5))
	spec(scenario.PaperScenarioC(2, 3, 2, 2, "olia", 3, 1, 5))
	spec(scenario.PaperTwoLink(10, 2, 3, "olia", 4, 1, 5))

	out = append(out, behaviourCanary{name: "fattree/k4", spec: scenario.PaperFatTree(
		scenario.FatTreeConfig{K: 4, Oversubscription: 4},
		scenario.FatTreeLoad{Algorithm: "olia", Subflows: 2,
			ShortBytes: 70_000, ShortGap: 100 * sim.Millisecond, Drain: 500 * sim.Millisecond},
		11, 250*sim.Millisecond, 1500*sim.Millisecond)})

	spec(&scenario.Spec{
		Name: "lossy-stream", Seed: 9, WarmupSec: 0.5, DurationSec: 6,
		Links: []scenario.LinkSpec{{RateMbps: 5, LossPct: 1}, {RateMbps: 3}},
		Paths: []scenario.PathSpec{{Links: []int{0}, DelayMs: 15}, {Links: []int{1}, DelayMs: 45}},
		Flows: []scenario.FlowSpec{{Name: "st", Algorithm: "olia", Paths: []int{0, 1},
			FlowBytes: 1_234_567, ChunkBytes: 10_001, Scheduler: "ecf"}},
	})

	spec(&scenario.Spec{
		Name: "capped-stream", Seed: 10, WarmupSec: 0.5, DurationSec: 2,
		Links: []scenario.LinkSpec{{RateMbps: 10}, {RateMbps: 5}},
		Paths: []scenario.PathSpec{{Links: []int{0}, DelayMs: 10}, {Links: []int{1}, DelayMs: 40}},
		Flows: []scenario.FlowSpec{{Name: "st", Algorithm: "olia", Paths: []int{0, 1},
			FlowBytes: 16 << 30, Scheduler: "minrtt", MaxCwndPkts: 8}},
	})

	pop := campaign.Default()
	for i := 0; i < 8; i++ {
		spec(pop.SampleSpec(i))
	}
	return out
}

// lockLine runs one canary and formats its behaviour.lock line. It runs
// the canary as campaigns, the harness and serve run theirs, under a
// context that can be cancelled, so Net.Run advances it in one-second
// slices; the same canary run in one call, under a context that cannot,
// must process the same events with the same Digest and Stats.
func lockLine(c behaviourCanary) (string, error) {
	enc, err := scenario.AppendSpec(nil, c.spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := scenario.Run(ctx, c.spec)
	if err != nil {
		return "", err
	}
	if len(rep.Violations) > 0 {
		return "", fmt.Errorf("%s: invariant violations: %v", c.name, rep.Violations)
	}
	if err := eventKindsConserve(rep); err != nil {
		return "", fmt.Errorf("%s: %w", c.name, err)
	}
	d := rep.Digest()
	whole, err := scenario.Run(context.Background(), c.spec)
	if err != nil {
		return "", err
	}
	if whole.Digest() != d || whole.Stats != rep.Stats {
		return "", fmt.Errorf("%s: run in one call: %+v, %+v; in one-second slices: %+v, %+v", c.name, whole.Digest(), whole.Stats, d, rep.Stats)
	}
	return fmt.Sprintf("%s %d %s %s", c.name, d.Processed, hex.EncodeToString(d.Traffic[:6]), hex.EncodeToString(sum[:6])), nil
}

// eventKindsConserve checks that rep's events by kind sum to its
// Processed and that none counts as sim.KindOther: every handler of the
// model names its kind.
func eventKindsConserve(rep *scenario.RunReport) error {
	var sum uint64
	for _, n := range rep.Stats.Events {
		sum += n
	}
	if sum != rep.Processed || rep.Stats.Events[sim.KindOther] != 0 {
		return fmt.Errorf("events by kind %v sum to %d, %d processed, want the sum and none of kind %s",
			rep.Stats.Events, sum, rep.Processed, sim.KindOther)
	}
	return nil
}

// TestEventKindsConserve holds the first 200 scenarios of the reference
// campaign to what lockLine holds every canary to: events by kind sum to
// Processed, and none counts as other.
func TestEventKindsConserve(t *testing.T) {
	pop := campaign.Default()
	for i := range 200 {
		rep, err := scenario.Run(context.Background(), pop.SampleSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := eventKindsConserve(rep); err != nil {
			t.Errorf("scenario %d: %v", i, err)
		}
	}
}

// TestBehaviourLock runs every canary and compares the result with the
// committed behaviour.lock, the way make apicheck compares api.txt: a
// difference means the simulator's behaviour moved, and with it Version().
func TestBehaviourLock(t *testing.T) {
	var b strings.Builder
	b.WriteString(lockHeader)
	for _, c := range behaviourCanaries() {
		line, err := lockLine(c)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(line + "\n")
	}
	got := b.String()
	if *updateLock {
		if err := os.WriteFile("behaviour.lock", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != string(behaviourLock) {
		want := strings.Split(string(behaviourLock), "\n")
		for i, line := range strings.Split(got, "\n") {
			if i >= len(want) || line != want[i] {
				t.Errorf("behaviour.lock line %d:\n got %s\nwant %s", i+1, line, at(want, i))
			}
		}
		t.Fatal("behaviour moved: if intended, run make lock and explain the delta per canary")
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of file)"
}
