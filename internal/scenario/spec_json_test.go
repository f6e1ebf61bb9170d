package scenario

import (
	"encoding/json"
	"testing"
)

// specJSONSeeds are the fuzz seeds: the four paper builders, steady_bulk's
// shape (bench/workloads.go), a fault timeline, a scheduled stream, and the
// longest path Validate lets through.
func specJSONSeeds() []*Spec {
	steady := &Spec{
		Name: "steady_bulk", Seed: 1, WarmupSec: 5, DurationSec: 25,
		Links: []LinkSpec{
			{RateMbps: 50, Queue: QueueRED},
			{RateMbps: 50, Queue: QueueDropTail, LossPct: 0.05},
		},
		Paths: []PathSpec{{Links: []int{0}, DelayMs: 20}, {Links: []int{1}, DelayMs: 40}},
		Flows: []FlowSpec{
			{Name: "olia", Algorithm: "olia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "lia", Algorithm: "lia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "tcp0", Algorithm: AlgoTCP, Paths: []int{0}, Count: 3, StartJitter: true},
			{Name: "tcp1", Algorithm: AlgoTCP, Paths: []int{1}, Count: 3, StartJitter: true},
		},
	}
	timeline := twoPathSpec()
	timeline.Timeline = append(RateTrace(0, 0.5, 0.5, 2, 1),
		TimelineEvent{AtSec: 1.2, Link: &LinkSetpoint{Link: 1, LossPct: Float(100), DelayMs: Float(0)}},
		TimelineEvent{AtSec: 1.4, Path: &PathFlap{Path: 0}},
		TimelineEvent{AtSec: 2, Path: &PathFlap{Path: 0, Up: true}},
		TimelineEvent{AtSec: 2.5, Link: &LinkSetpoint{Link: 1, LossPct: Float(0)}})
	stream := twoPathSpec()
	stream.Flows[0].FlowBytes, stream.Flows[0].Scheduler, stream.Flows[0].ChunkBytes = 1<<20, "ecf", 8192
	long := twoPathSpec()
	long.Paths[0].Links = make([]int, maxPathLinks) // link 0 over and over: a 2 050-hop route
	return []*Spec{
		PaperScenarioA(2, 2, 2, 1, "olia", 1, 1, 2),
		PaperScenarioB(2, 4, 4, "lia", true, 2, 1, 2),
		PaperScenarioC(2, 2, 2, 1, "olia", 3, 1, 2),
		PaperTwoLink(2, 1, 1, "olia", 4, 1, 2),
		steady, timeline, stream, long,
	}
}

// FuzzSpecJSON: whatever bytes are decoded into a Spec, Validate rejects
// them or Compile builds the network; nothing on the way panics. A panic
// found here is a check Validate is missing.
func FuzzSpecJSON(f *testing.F) {
	for _, sp := range specJSONSeeds() {
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil || sp.Validate() != nil {
			return
		}
		senders := 0
		for _, fs := range sp.Flows {
			senders += min(fs.count(), 257) * len(fs.Paths)
		}
		if senders > 256 {
			t.Skip("more senders cost memory and time, not cases")
		}
		if _, err := Compile(&sp); err != nil {
			t.Fatalf("Compile rejected a spec Validate accepted: %v\nspec: %s", err, data)
		}
	})
}
