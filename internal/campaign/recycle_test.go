package campaign

import (
	"context"
	"testing"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
)

// bulkSpec is the benchmark's steady_bulk network (bench/workloads.go) at
// a sixth of its length: a RED and a lossy drop-tail link under four
// multipath and six TCP flows, whose runs peak at several times the packets
// a Default() scenario holds.
func bulkSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "steady_bulk", Seed: 1, WarmupSec: 1, DurationSec: 4,
		Links: []scenario.LinkSpec{
			{RateMbps: 50, Queue: scenario.QueueRED},
			{RateMbps: 50, Queue: scenario.QueueDropTail, LossPct: 0.05},
		},
		Paths: []scenario.PathSpec{{Links: []int{0}, DelayMs: 20}, {Links: []int{1}, DelayMs: 40}},
		Flows: []scenario.FlowSpec{
			{Name: "olia", Algorithm: "olia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "lia", Algorithm: "lia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "tcp0", Algorithm: scenario.AlgoTCP, Paths: []int{0}, Count: 3, StartJitter: true},
			{Name: "tcp1", Algorithm: scenario.AlgoTCP, Paths: []int{1}, Count: 3, StartJitter: true},
		},
	}
}

// TestRecycledMemoryLeaksNoState: a finished run hands its packet slabs
// and its generator to whichever run comes next, on any worker. Default()'s
// first 64 indices, run forward and then in reverse in one process, at 1
// and at 4 workers, with a bulk run after every eighth, each reach the same
// digest every time, and so does the bulk run.
func TestRecycledMemoryLeaksNoState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	const n = 64
	sp := Default().fill()
	type run struct {
		d   scenario.Digest
		err error
	}
	var want [n + 1]*scenario.Digest // index n is the bulk run
	for _, workers := range []int{1, 4} {
		for _, reverse := range []bool{false, true} {
			var order []int
			for k := range n {
				i := k
				if reverse {
					i = n - 1 - k
				}
				order = append(order, i)
				if k%8 == 7 {
					order = append(order, n)
				}
			}
			runs, err := runner.Map(context.Background(), runner.New(workers), len(order), func(j int) run {
				spec := bulkSpec()
				if order[j] < n {
					spec = sp.SampleSpec(order[j])
				}
				rep, err := scenario.Run(context.Background(), spec)
				if err != nil {
					return run{err: err}
				}
				return run{d: rep.Digest()}
			})
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range runs {
				i := order[j]
				switch {
				case r.err != nil:
					t.Fatalf("workers %d reverse %v: index %d: %v", workers, reverse, i, r.err)
				case want[i] == nil:
					want[i] = &r.d
				case *want[i] != r.d:
					t.Errorf("workers %d reverse %v: index %d reached digest %+v, first run %+v", workers, reverse, i, r.d, *want[i])
				}
			}
		}
	}
}
