package scenario

import (
	"context"
	"fmt"
	"testing"
)

// queueScaleSpec is n TCP flows over one 200 Mb/s link: every flow keeps
// an RTO timer and a packet or two in flight, so about n events are
// pending at once, far more than the kernel's run holds.
func queueScaleSpec(n int) *Spec {
	return &Spec{
		Name: fmt.Sprint("queue-scale-", n), Seed: 1, WarmupSec: 0.5, DurationSec: 2,
		Links: []LinkSpec{{RateMbps: 200}},
		Paths: []PathSpec{{Links: []int{0}, DelayMs: 20}},
		Flows: []FlowSpec{{Name: "bulk", Algorithm: AlgoTCP, Paths: []int{0}, Count: n}},
	}
}

// BenchmarkQueueScale runs queueScaleSpec at 10, 100 and 1 000 flows: the
// kernel event queue from a pending set its run holds to one that lives
// mostly in its far heap, the standing measurement of its worst case. It
// reports the most events pending at once and the queue's work per event.
//
//	go test -run '^$' -bench QueueScale ./internal/scenario
func BenchmarkQueueScale(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprint("flows=", n), func(b *testing.B) {
			sp := queueScaleSpec(n)
			b.ReportAllocs()
			var rep *RunReport
			for range b.N {
				var err error
				if rep, err = Run(context.Background(), sp); err != nil {
					b.Fatal(err)
				}
			}
			events := float64(rep.Processed)
			b.ReportMetric(float64(rep.Stats.HeapMax), "heap_max")
			b.ReportMetric(float64(rep.Stats.RunMoves)/events, "run_moves/ev")
			b.ReportMetric(float64(rep.Stats.FarSifts)/events, "far_sifts/ev")
		})
	}
}
