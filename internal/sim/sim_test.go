package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Millis(2.5) != 2500*Microsecond {
		t.Fatalf("Millis(2.5) = %v", Millis(2.5))
	}
	if got := (2 * Second).Sec(); got != 2.0 {
		t.Fatalf("Sec() = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String() = %q", s)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		s.At(d*Millisecond, func() { got = append(got, s.Now()) })
	}
	s.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.At(10*Millisecond, func() {
		s.After(5*Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 15*Millisecond {
		t.Fatalf("After fired at %v, want 15ms", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in past")
			}
		}()
		s.At(5*Millisecond, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	s.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.At(Millisecond, func() { ran = true })
	s.Cancel(e)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and cancelling the zero Timer must be no-ops.
	s.Cancel(e)
	s.Cancel(Timer{})
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []int
	var events []Timer
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, s.At(Time(i+1)*Millisecond, func() { got = append(got, i) }))
	}
	s.Cancel(events[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestReschedulePending(t *testing.T) {
	s := New(1)
	var at Time
	e := s.At(Millisecond, func() { at = s.Now() })
	s.Reschedule(e, 7*Millisecond)
	s.Run()
	if at != 7*Millisecond {
		t.Fatalf("rescheduled event ran at %v, want 7ms", at)
	}
}

func TestRescheduleAfterFire(t *testing.T) {
	s := New(1)
	count := 0
	e := s.At(Millisecond, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	s.Reschedule(e, s.Now()+Millisecond)
	s.Run()
	if count != 2 {
		t.Fatalf("re-armed event did not fire, count = %d", count)
	}
}

func TestRescheduleCancelled(t *testing.T) {
	s := New(1)
	count := 0
	e := s.At(Millisecond, func() { count++ })
	s.Cancel(e)
	s.Reschedule(e, 2*Millisecond)
	s.Run()
	if count != 1 {
		t.Fatalf("re-armed cancelled event: count = %d, want 1", count)
	}
}

func TestRunUntilStopsAtBoundaryAndAdvancesClock(t *testing.T) {
	s := New(1)
	var ran []Time
	for _, d := range []Time{1, 2, 3, 10} {
		d := d
		s.At(d*Millisecond, func() { ran = append(ran, s.Now()) })
	}
	s.RunUntil(5 * Millisecond)
	if len(ran) != 3 {
		t.Fatalf("ran %d events, want 3", len(ran))
	}
	if s.Now() != 5*Millisecond {
		t.Fatalf("clock = %v, want 5ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// Continue: the 10ms event must still fire.
	s.RunUntil(20 * Millisecond)
	if len(ran) != 4 {
		t.Fatalf("ran %d events after second RunUntil, want 4", len(ran))
	}
	if s.Now() != 20*Millisecond {
		t.Fatalf("clock = %v, want 20ms", s.Now())
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(Second)
	if s.Now() != Second {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, int64(s.Now()), s.Rand().Int63n(1000))
			if len(out) < 40 {
				s.After(Time(1+s.Rand().Intn(5))*Millisecond, tick)
			}
		}
		s.After(Millisecond, tick)
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcessedCount(t *testing.T) {
	s := New(1)
	for i := 1; i <= 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// Property: for any set of (time, id) schedules, execution order is sorted by
// time with FIFO tie-break on schedule order.
func TestPropertyExecutionOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		s := New(7)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, Time(d)*Microsecond
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.Run()
		if len(got) != len(delays) {
			return false
		}
		want := make([]rec, len(got))
		copy(want, got)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset never runs a cancelled event and
// always runs every surviving event.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		if len(delays) > 100 {
			delays = delays[:100]
		}
		s := New(3)
		ran := make([]bool, len(delays))
		events := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			events[i] = s.At(Time(d)*Microsecond, func() { ran[i] = true })
		}
		cancelled := make([]bool, len(delays))
		for i := range delays {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range delays {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(Microsecond, tick)
		}
	}
	s.After(Microsecond, tick)
	b.ResetTimer()
	s.Run()
}
