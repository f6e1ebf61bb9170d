package sim

import (
	"testing"
	"unsafe"
)

// TestEventFitsCacheLine: an Event is touched on every dispatch; it must not
// straddle two 64-byte lines.
func TestEventFitsCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 64 {
		t.Fatalf("Event is %d bytes, want <= 64", sz)
	}
}

// TestTimeStringFormat pins the exact Time.String format: the strconv-based
// formatter must stay byte-identical to the fmt.Sprintf("%.6fs", t.Sec())
// it replaced, because the string appears on trace paths.
func TestTimeStringFormat(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0.000000s"},
		{Nanosecond, "0.000000s"},
		{500 * Nanosecond, "0.000000s"}, // 5e-7's nearest double rounds down, as %.6f did
		{Microsecond, "0.000001s"},
		{1500 * Millisecond, "1.500000s"},
		{Second, "1.000000s"},
		{120 * Second, "120.000000s"},
		{-250 * Millisecond, "-0.250000s"},
		{123456789 * Nanosecond, "0.123457s"},
		{999999999999, "1000.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// counter implements Handler by counting firings and recording times.
type counter struct {
	n     int
	times []Time
}

func (c *counter) RunEvent(now Time) {
	c.n++
	c.times = append(c.times, now)
}

// ticker reschedules itself every period until limit firings.
type ticker struct {
	s      *Sim
	period Time
	n      int
	limit  int
}

func (tk *ticker) RunEvent(now Time) {
	tk.n++
	if tk.n < tk.limit {
		tk.s.ScheduleAfter(tk.period, tk)
	}
}

func TestScheduleHandlerFastPath(t *testing.T) {
	s := New(1)
	c := &counter{}
	s.Schedule(2*Millisecond, c)
	s.ScheduleAfter(Millisecond, c)
	s.Run()
	if c.n != 2 {
		t.Fatalf("handler ran %d times, want 2", c.n)
	}
	if c.times[0] != Millisecond || c.times[1] != 2*Millisecond {
		t.Fatalf("handler times = %v", c.times)
	}
}

func TestScheduleInterleavesWithClosures(t *testing.T) {
	s := New(1)
	var order []string
	c := &counter{}
	s.At(Millisecond, func() { order = append(order, "fn1") })
	s.Schedule(Millisecond, handlerFunc(func(Time) { order = append(order, "h") }))
	s.At(Millisecond, func() { order = append(order, "fn2") })
	_ = c
	s.Run()
	want := []string{"fn1", "h", "fn2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order across scheduling APIs broken: %v", order)
		}
	}
}

// handlerFunc adapts a func to Handler for tests only (allocates; the
// production fast path implements Handler on components).
type handlerFunc func(Time)

func (f handlerFunc) RunEvent(now Time) { f(now) }

// TestEventPoolRecyclesFireAndForget proves fire-and-forget events come from
// and return to the free list: a long self-rescheduling chain must run on a
// single pooled Event.
func TestEventPoolRecyclesFireAndForget(t *testing.T) {
	s := New(1)
	tk := &ticker{s: s, period: Microsecond, limit: 1000}
	s.ScheduleAfter(Microsecond, tk)
	s.Run()
	if tk.n != 1000 {
		t.Fatalf("ticker ran %d times, want 1000", tk.n)
	}
	if got := len(s.free); got != 1 {
		t.Fatalf("free list holds %d events after chain, want 1 (single recycled event)", got)
	}
}

func TestScheduleTimerRearm(t *testing.T) {
	s := New(1)
	c := &counter{}
	tm := s.ScheduleTimer(Millisecond, c)
	s.Reschedule(tm, 3*Millisecond) // move while pending
	s.Run()
	if c.n != 1 || c.times[0] != 3*Millisecond {
		t.Fatalf("n=%d times=%v", c.n, c.times)
	}
	s.Reschedule(tm, s.Now()+Millisecond) // re-arm after fire
	s.Run()
	if c.n != 2 {
		t.Fatalf("re-armed timer did not fire, n=%d", c.n)
	}
	s.Cancel(tm)
	s.Reschedule(tm, s.Now()+Millisecond) // re-arm after cancel
	s.Run()
	if c.n != 3 {
		t.Fatalf("re-arm after cancel failed, n=%d", c.n)
	}
}

// TestStaleHandleAfterFree is the recycled-event safety gate: once a timer
// is freed its Event may be recycled into a brand-new event, and the old
// handle must not be able to cancel or move the new incarnation.
func TestStaleHandleAfterFree(t *testing.T) {
	s := New(1)
	c := &counter{}
	stale := s.ScheduleTimer(Millisecond, c)
	s.Free(stale) // cancels and recycles
	if stale.Valid() {
		t.Fatal("freed handle still valid")
	}

	// The recycled Event is handed to the next scheduling call.
	c2 := &counter{}
	fresh := s.ScheduleTimer(2*Millisecond, c2)
	if fresh.e != stale.e {
		t.Fatal("free list did not recycle the freed event (test assumption broken)")
	}

	// Attacks through the stale handle must be inert — and must not even
	// consume a tie-break sequence number, or they would reorder later
	// same-time events and break byte-identity.
	before := s.ReserveSeq()
	s.Cancel(stale)
	s.Reschedule(stale, 9*Millisecond)
	s.Free(stale)
	if after := s.ReserveSeq(); after != before+1 {
		t.Fatalf("stale Cancel/Reschedule/Free consumed %d seq numbers, want 0", after-before-1)
	}

	s.Run()
	if c.n != 0 {
		t.Fatalf("freed timer fired %d times", c.n)
	}
	if c2.n != 1 || c2.times[0] != 2*Millisecond {
		t.Fatalf("new incarnation disturbed by stale handle: n=%d times=%v", c2.n, c2.times)
	}
}

func TestFreePendingTimerCancels(t *testing.T) {
	s := New(1)
	c := &counter{}
	tm := s.ScheduleTimer(Millisecond, c)
	s.Free(tm)
	s.Run()
	if c.n != 0 {
		t.Fatal("freed pending timer fired")
	}
	// Double-free and freeing the zero Timer are no-ops.
	s.Free(tm)
	s.Free(Timer{})
}

// TestReserveSeqPreservesOrder verifies that an event armed with a reserved
// (earlier) sequence number runs before same-time events scheduled after the
// reservation — the property netem.Pipe's delivery ring relies on for
// byte-identical results.
func TestReserveSeqPreservesOrder(t *testing.T) {
	s := New(1)
	var order []string
	seq := s.ReserveSeq() // reserved first...
	s.At(Millisecond, func() { order = append(order, "later") })
	tm := s.ScheduleTimerSeq(Millisecond, seq, handlerFunc(func(Time) { order = append(order, "reserved") }))
	s.Run()
	if len(order) != 2 || order[0] != "reserved" || order[1] != "later" {
		t.Fatalf("order = %v, want [reserved later]", order)
	}

	// RescheduleSeq keeps the same property on re-arm.
	order = nil
	seq2 := s.ReserveSeq()
	s.At(s.Now()+Millisecond, func() { order = append(order, "later") })
	s.RescheduleSeq(tm, s.Now()+Millisecond, seq2)
	s.Run()
	if len(order) != 2 || order[0] != "reserved" || order[1] != "later" {
		t.Fatalf("re-armed order = %v, want [reserved later]", order)
	}
}

func TestTimerIntrospection(t *testing.T) {
	s := New(1)
	var tmZero Timer
	if tmZero.Valid() {
		t.Fatal("zero Timer not inert")
	}
	tm := s.ScheduleTimer(5*Millisecond, &counter{})
	if !tm.Valid() || tm.e.idx < 0 || tm.e.at != 5*Millisecond {
		t.Fatalf("pending timer introspection wrong: valid=%v heap index=%d at=%v",
			tm.Valid(), tm.e.idx, tm.e.at)
	}
	s.Run()
	if !tm.Valid() || tm.e.idx >= 0 {
		t.Fatal("fired timer should be valid but not pending")
	}
	s.Free(tm)
	if tm.Valid() {
		t.Fatal("freed timer still valid")
	}
}

// TestScheduleZeroAlloc locks the zero-allocation property of the handler
// fast path: steady-state schedule+fire cycles must not allocate.
func TestScheduleZeroAlloc(t *testing.T) {
	s := New(1)
	tk := &ticker{s: s, period: Microsecond, limit: 4}
	// Warm the pool: a few cycles so the free list and heap are populated.
	s.ScheduleAfter(Microsecond, tk)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tk.limit += 2
		s.ScheduleAfter(Microsecond, tk)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("handler fast path allocates %.1f per cycle, want 0", allocs)
	}
}

// TestPendingHighWater: the high-water mark is the deepest the queue has
// been. Tickers that re-arm as they fire (each refilling the root their
// step vacated), cancellations and a drained queue leave it where it was.
// (TestScheduleZeroAlloc covers push, which keeps it, allocating nothing.)
func TestPendingHighWater(t *testing.T) {
	s := New(1)
	tickers := make([]*ticker, 3)
	for i := range tickers {
		tickers[i] = &ticker{s: s, period: Microsecond, limit: 50}
		s.ScheduleAfter(Time(i+1)*Microsecond, tickers[i])
	}
	tm := s.ScheduleTimer(Second, tickers[0])
	if got := s.Stats().HeapMax; got != 4 {
		t.Fatalf("high water %d after four schedules, want 4", got)
	}
	s.Cancel(tm)
	s.Run()
	if got := s.Stats().HeapMax; got != 4 || s.Pending() != 0 || tickers[2].n != 50 {
		t.Fatalf("high water %d, pending %d, %d ticks after the run, want 4, 0 and 50", got, s.Pending(), tickers[2].n)
	}
}

// TestStatsCounts: a sift step is one iteration of a sift's loop, and
// every processed event counts once under its handler's Kind.
func TestStatsCounts(t *testing.T) {
	if NumKinds&(NumKinds-1) != 0 {
		t.Fatalf("NumKinds = %d, want a power of two: step masks the index with it", NumKinds)
	}
	// Six events pushed in time order: each push but the first compares
	// with its parent once, and stays. Closing the root popping 1 left, 6
	// moves from the tail down one level under 2, then finds no children
	// (two iterations); popping 2, 5 moves down under 3 and finds none
	// (two); popping 3, 4 and 5, the tail compares once and stays.
	s := New(1)
	c := &counter{}
	for i := range 6 {
		s.Schedule(Time(i+1), c)
	}
	s.Run()
	want := Stats{HeapMax: 6, SiftDown: 7, SiftUp: 5}
	want.Events[KindOther] = 6
	if got := s.Stats(); got != want {
		t.Fatalf("Stats %+v, want %+v", got, want)
	}
	// Pushed in reverse order, each of four more events moves its hole up
	// one level, to the root, where the loop ends.
	s = New(1)
	for i := range 5 {
		s.Schedule(Time(5-i), c)
	}
	if got := s.Stats(); got.SiftUp != 4 || got.SiftDown != 0 {
		t.Fatalf("five pushes in reverse order: %+v, want 4 steps up and none down", got)
	}
	if KindPipe.String() != "pipe" || NumKinds.String() != "kind8" {
		t.Fatalf("kind names %q and %q", KindPipe, NumKinds)
	}
}

// TestClosureEventAtMostOneAlloc bounds the At/After path: a retained
// closure event costs its one event slot and nothing else, so cold-path
// timers cannot quietly grow a second allocation.
func TestClosureEventAtMostOneAlloc(t *testing.T) {
	s := New(1)
	tick := func() {}
	s.After(Microsecond, tick)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(Microsecond, tick)
		s.Run()
	})
	if allocs > 1 {
		t.Fatalf("closure path allocates %.1f per event, want at most 1", allocs)
	}
}

func BenchmarkScheduleHandler(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	tk := &ticker{s: s, period: Microsecond, limit: b.N}
	s.ScheduleAfter(Microsecond, tk)
	b.ResetTimer()
	s.Run()
}
