// Package sim provides the discrete-event simulation kernel used by every
// other subsystem in this repository: a virtual clock, an event queue with
// deterministic FIFO tie-breaking, timers, and a seeded random source.
//
// The design follows htsim's EventList: components schedule callbacks at
// absolute virtual times and the kernel runs them in nondecreasing time
// order. Virtual time is an int64 nanosecond count, which gives ~292 years
// of range — far more than the 120-second experiments in the paper — while
// keeping arithmetic exact (no float drift in packet serialization times).
//
// The kernel is built for zero steady-state allocation on the packet hot
// path: the event queue is an inlined, index-tracked 4-ary min-heap whose
// slots carry their (at, seq) key inline (no container/heap interface
// boxing, no pointer chase per comparison), events are recycled through a
// per-Sim free list, and scheduling a Handler allocates nothing. At/After
// remain as closure-taking conveniences for tests and benchmark rigs. See
// DESIGN.md "Performance & memory model".
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"sync"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point second count to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a floating-point millisecond count to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Sec converts t to floating-point seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// ExactSec converts t to floating-point seconds that Seconds maps back to t
// exactly, for t up to 10¹⁵ ns (scenario.MaxSpecSec): Sec where it survives
// the round trip, and where it would come back a nanosecond short, the
// midpoint of t's nanosecond, (ns + ½)/1e9, which the two roundings of the
// round trip cannot push out of it.
func (t Time) ExactSec() float64 {
	if s := t.Sec(); Seconds(s) == t {
		return s
	}
	return (float64(t) + 0.5) / float64(Second)
}

// String formats t as seconds with microsecond precision ("1.500000s"),
// identically to fmt.Sprintf("%.6fs", t.Sec()) but without fmt's verb
// parsing and interface boxing: it sits on trace paths.
func (t Time) String() string {
	var buf [24]byte
	b := strconv.AppendFloat(buf[:0], t.Sec(), 'f', 6, 64)
	b = append(b, 's')
	return string(b)
}

// Handler is the one kind of event callback: a component (pipe delivery,
// queue service completion, protocol timer, a run's warm-up snapshot)
// implements RunEvent on a long-lived value, so scheduling it allocates
// nothing.
type Handler interface {
	RunEvent(now Time)
}

// Kind classes an event by the component that handles it, for the count
// of events processed per kind (Stats.Events). The component names it when
// it arms a new event (Schedule, ScheduleAfter, ScheduleTimer and
// ScheduleTimerSeq take it as an optional last argument), and the event
// keeps it through every re-arm, so running one costs one indexed
// increment. An event armed without one, such as a closure from At or
// After, counts as KindOther. The kernel asks no handler for its kind: a
// type assertion at every arm would make the runtime grow its assertion
// cache, an allocation, at random times on the packet path.
type Kind uint8

// The kinds, eight so that a mask bounds the index: every event of the
// model is armed with one of the seven below KindOther.
const (
	KindOther      Kind = iota // an event armed without a kind
	KindQueue                  // a link queue finishing a packet's service
	KindPipe                   // a pipe delivering a packet
	KindRTO                    // a TCP sender's retransmission timer
	KindDelayedAck             // a TCP receiver's delayed-ACK timer
	KindFlow                   // a flow starting or stopping, a stream's sender asking for bytes
	KindControl                // a timeline setpoint, MPTCP probe control's tick
	KindObserve                // a run's invariant monitor, window snapshot or tracer
	NumKinds
)

var kindNames = [NumKinds]string{"other", "queue", "pipe", "rto", "delack", "flow", "control", "observe"}

// String names k as mptcpsim profile prints it.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind" + strconv.Itoa(int(k))
}

// kindOf is the Kind an arming call was given, KindOther without one.
func kindOf(kind []Kind) Kind {
	if len(kind) > 0 {
		return kind[0]
	}
	return KindOther
}

// funcHandler adapts a closure to Handler for At and After. A func value is
// pointer-shaped, so storing one in the interface does not allocate.
type funcHandler func()

func (f funcHandler) RunEvent(Time) { f() }

// Event is one scheduled callback. Events are owned by the kernel: user
// code holds Timer handles, never *Event. Fire-and-forget events (Schedule,
// ScheduleAfter) are recycled through the free list as they run; retained
// events (At, After, ScheduleTimer) stay re-armable until explicitly freed.
type Event struct {
	at  Time   // last armed time, read by tests; the ordering key lives in the heap slot
	gen uint64 // incremented at each recycle; stale Timer handles mismatch
	idx int32  // heap index; -1 when not queued
	// retained marks events whose Timer handle escaped to a caller: they
	// are never auto-recycled, keeping Cancel/Reschedule re-arm semantics.
	retained bool
	kind     Kind // named when the event is issued

	cb Handler
}

// Timer is a handle to a scheduled event. The zero Timer is inert. A Timer
// becomes stale once its event is freed and recycled; Cancel and Reschedule
// through a stale handle are no-ops, so a recycled event can never be
// affected through an old handle.
type Timer struct {
	e   *Event
	gen uint64
}

// Valid reports whether the handle still refers to its original event (the
// event may be pending, fired, or cancelled — all re-armable states).
func (tm Timer) Valid() bool { return tm.e != nil && tm.e.gen == tm.gen }

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model components run inside event callbacks.
type Sim struct {
	now     Time
	heap    []slot        // 4-ary min-heap on (at, seq)
	vacant  bool          // heap[0] is empty: its event is running (see push)
	free    []*Event      // event free list (single-threaded, no locking)
	slab    []Event       // not yet issued remainder of the newest event slab
	arrays  *kernelArrays // the holder heap and free came in, until ReleaseRand
	nextSeq uint64
	rng     *rand.Rand
	peak    int  // most events pending at once (for diagnostics)
	left    int  // events pending when ReleaseRand ended the run
	over    bool // ReleaseRand ended the run: nothing may schedule or advance
	aux     any
	// siftDowns and siftUps count the loop iterations of siftDown and
	// siftUp; kinds counts processed events by Kind, and Processed sums
	// it. Stats reports them.
	siftDowns, siftUps uint64
	kinds              [NumKinds]uint64
}

// slabEvents is how many events one free-list miss allocates together, as
// netem's packet pool carves packets. A new heap and free list start with
// room for one slab.
const slabEvents = 16

// kernelArrays carries a heap array and a free-list array, with every slot
// cleared, from a finished run to the next Sim: a Sim keeps the holder it
// took its arrays from and hands it back with the arrays the run grew them
// into, so the hand-back puts a pointer and allocates nothing.
type kernelArrays struct {
	heap []slot
	free []*Event
}

// arrayPool recycles kernel arrays: a run that grew its heap and free list
// to its peak leaves them at that size for the run after it, which then
// allocates neither.
var arrayPool = sync.Pool{New: func() any {
	return &kernelArrays{heap: make([]slot, 0, slabEvents), free: make([]*Event, 0, slabEvents)}
}}

// New returns a simulator whose random source is NewRand(seed).
// The same seed always yields the same execution.
func New(seed int64) *Sim {
	a := arrayPool.Get().(*kernelArrays)
	return &Sim{rng: NewRand(seed), heap: a.heap, free: a.free, arrays: a}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's deterministic random source. It panics
// once ReleaseRand has handed the source back.
func (s *Sim) Rand() *rand.Rand {
	if s.rng == nil {
		panic("sim: Rand after ReleaseRand: the run's generator was handed back")
	}
	return s.rng
}

// ReleaseRand ends the simulation: it hands the generator back to the pool
// NewRand takes from, and the heap and free-list arrays, every slot
// cleared, to the pool New takes from, for a caller that is done with the
// run. scenario.Net.Run releases them when the run ends, however it ends,
// together with the run's packet slabs and range lists. From then on Rand,
// every Schedule* and Reschedule*, Cancel, Free, RunUntil and Run panic,
// naming what was called, so a finished network cannot advance over memory
// handed back to other runs; the run's counters (Now, Processed, Pending,
// Stats) stay readable. The events stay with the run: a
// finished network's components still hold Timers into them. A second
// ReleaseRand does nothing.
func (s *Sim) ReleaseRand() {
	if s.rng != nil {
		FreeRand(s.rng)
		s.rng = nil
	}
	s.left = s.Pending()
	if a := s.arrays; a != nil {
		a.heap, a.free = s.heap[:0], s.free[:0]
		clear(a.heap[:cap(a.heap)])
		clear(a.free[:cap(a.free)])
		s.heap, s.free, s.arrays = nil, nil, nil
		arrayPool.Put(a)
	}
	s.over = true
}

// live panics, naming op, once ReleaseRand has ended the run.
func (s *Sim) live(op string) {
	if s.over {
		panic("sim: " + op + " after ReleaseRand: the run is over and its memory handed back")
	}
}

// Processed reports how many events have been executed so far: the sum
// of Stats().Events, which step counts instead of a total.
func (s *Sim) Processed() uint64 {
	var n uint64
	for _, k := range s.kinds {
		n += k
	}
	return n
}

// Aux returns the per-simulation attachment installed by SetAux, or nil.
func (s *Sim) Aux() any { return s.aux }

// SetAux attaches arbitrary per-simulation state owned by a higher layer.
// netem anchors its packet free list here (netem.PoolFor); the kernel never
// inspects the value.
func (s *Sim) SetAux(v any) { s.aux = v }

// --- event allocation ---

// alloc pops a recycled event, or carves one from the current slab.
func (s *Sim) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	if len(s.slab) == 0 {
		s.slab = new([slabEvents]Event)[:]
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	e.idx = -1
	return e
}

// recycle returns e to the free list. The generation bump turns every
// outstanding Timer for e stale; the callback is cleared so the list does
// not retain it.
func (s *Sim) recycle(e *Event) {
	e.gen++
	e.cb = nil
	e.retained = false
	e.idx = -1
	s.free = append(s.free, e)
}

// --- 4-ary min-heap on (at, seq), index-tracked ---
//
// Each heap slot carries its key inline, so a sift compares adjacent slice
// elements (four children span 96 contiguous bytes) without dereferencing
// any Event. (at, seq) is a total order (seq is unique), so the pop order —
// and therefore every simulation result — is independent of heap arity,
// slot layout and the vacant-root shortcut below.
//
// Vacant root: step takes the root and, when other events remain, leaves
// the slot empty (s.vacant) while the handler runs instead of refilling it
// from the tail. Most handlers re-arm something, and the first push drops
// into the hole and sifts down once — one sift where pop-then-push pays
// two. While s.vacant, heap[0] holds no event and every other slot obeys
// the heap property; siftDown(0, x) restores it for any x. The vacancy is
// closed (tail moved to the root) before the next pop or peek and before
// any operation that addresses a slot by index (remove, rekey).

type slot struct {
	at  Time
	seq uint64 // schedule order; breaks ties deterministically (FIFO)
	e   *Event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (s *Sim) push(x slot) {
	if s.vacant {
		s.vacant = false
		s.siftedDown(0, s.siftDown(0, x))
		return
	}
	s.heap = append(s.heap, x)
	// Only this branch can raise the pending count above its peak: filling
	// the vacant root restores a count the heap held before its step.
	if len(s.heap) > s.peak {
		s.peak = len(s.heap)
	}
	s.siftUp(len(s.heap)-1, x)
}

// siftUp places x into the hole at slot i, moving the hole toward the root
// while x sorts before the hole's parent. It counts its loop iterations on
// the Sim: a local would take it past the compiler's inlining budget, and
// push and rekey would call it.
func (s *Sim) siftUp(i int, x slot) {
	h := s.heap
	for i > 0 {
		s.siftUps++
		p := (i - 1) >> 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.idx = int32(i)
		i = p
	}
	h[i] = x
	x.e.idx = int32(i)
}

// siftDown places x into the hole at slot i, moving the hole toward the
// leaves while its smallest child sorts before x, and returns the slot x
// went to, for its caller to count the sift (siftedDown).
func (s *Sim) siftDown(i int, x slot) int {
	h := s.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		h[i].e.idx = int32(i)
		i = m
	}
	h[i] = x
	x.e.idx = int32(i)
	return i
}

// siftedDown counts the loop iterations of a siftDown that moved a hole
// from slot from to slot to: one per level it moved down and one that
// ended it. Its callers count rather than siftDown's loop: a counter
// there, or the Sim live across it, made the compiler spill registers
// inside the loop over the children, a quarter more time in siftDown on
// the fat tree.
func (s *Sim) siftedDown(from, to int) {
	s.siftDowns += uint64(level(to)-level(from)) + 1
}

// level is slot i's depth in the 4-ary heap: level L holds the slots from
// (4^L-1)/3 to (4^(L+1)-1)/3 - 1.
func level(i int) int { return (bits.Len(uint(3*i+1)) - 1) / 2 }

// takeLast removes and returns the tail slot.
func (s *Sim) takeLast() slot {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n].e = nil
	s.heap = s.heap[:n]
	return last
}

// closeVacancy refills a vacant root from the tail.
func (s *Sim) closeVacancy() {
	s.vacant = false
	if last := s.takeLast(); len(s.heap) > 0 {
		s.siftedDown(0, s.siftDown(0, last))
	}
}

// remove deletes a queued event from an arbitrary heap position.
func (s *Sim) remove(e *Event) {
	if s.vacant {
		s.closeVacancy()
	}
	i := int(e.idx)
	e.idx = -1
	if last := s.takeLast(); i < len(s.heap) {
		s.rekey(i, last)
	}
}

// rekey places x at slot i, whose previous occupant is being replaced, and
// restores the heap property in whichever direction x has to move.
func (s *Sim) rekey(i int, x slot) {
	if i > 0 && x.before(s.heap[(i-1)>>2]) {
		s.siftUp(i, x)
	} else {
		s.siftedDown(i, s.siftDown(i, x))
	}
}

// --- scheduling ---

func (s *Sim) checkFuture(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
}

func (s *Sim) takeSeq() uint64 {
	q := s.nextSeq
	s.nextSeq++
	return q
}

func (s *Sim) arm(e *Event, t Time, seq uint64) {
	e.at = t
	s.push(slot{t, seq, e})
}

// At schedules fn to run at absolute virtual time t and returns a
// re-armable handle. Scheduling in the past panics: that is always a model
// bug and silently reordering time would make results meaningless.
//
// At allocates a closure slot per call; model code implements Handler and
// uses Schedule/ScheduleTimer instead.
func (s *Sim) At(t Time, fn func()) Timer {
	return s.ScheduleTimer(t, funcHandler(fn))
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Schedule arms h to run at absolute time t, fire-and-forget: no handle is
// returned and the event is recycled as it fires. This is the zero-
// allocation hot path. kind, at most one, is the event's Kind.
func (s *Sim) Schedule(t Time, h Handler, kind ...Kind) {
	s.live("Schedule")
	s.checkFuture(t)
	e := s.alloc()
	e.cb, e.kind = h, kindOf(kind)
	s.arm(e, t, s.takeSeq())
}

// ScheduleAfter arms h to run d after the current time, fire-and-forget.
func (s *Sim) ScheduleAfter(d Time, h Handler, kind ...Kind) {
	s.live("ScheduleAfter")
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.Schedule(s.now+d, h, kind...)
}

// ScheduleTimer arms h at absolute time t and returns a re-armable handle,
// for long-lived timers (RTO, delayed ACK) that are cancelled and
// rescheduled in place. The event stays usable — and allocated — until
// Free. kind, at most one, is the event's Kind for as long as it lives.
func (s *Sim) ScheduleTimer(t Time, h Handler, kind ...Kind) Timer {
	s.live("ScheduleTimer")
	return s.armTimer(t, s.takeSeq(), h, kindOf(kind))
}

// ReserveSeq hands out one FIFO tie-break sequence number, exactly as
// scheduling an event now would consume. A component that batches many
// logical events behind one kernel event (netem.Pipe's delivery ring)
// reserves a seq per item at admission and arms its single timer with
// ScheduleTimerSeq/RescheduleSeq, preserving bit-exact event ordering with
// the one-event-per-item design.
func (s *Sim) ReserveSeq() uint64 { return s.takeSeq() }

// ScheduleTimerSeq is ScheduleTimer with an explicit sequence number
// previously obtained from ReserveSeq.
func (s *Sim) ScheduleTimerSeq(t Time, seq uint64, h Handler, kind ...Kind) Timer {
	s.live("ScheduleTimerSeq")
	return s.armTimer(t, seq, h, kindOf(kind))
}

// armTimer arms h at (t, seq) on a retained event and returns its handle:
// the body of ScheduleTimer and ScheduleTimerSeq.
func (s *Sim) armTimer(t Time, seq uint64, h Handler, kind Kind) Timer {
	s.checkFuture(t)
	e := s.alloc()
	e.cb, e.kind = h, kind
	e.retained = true
	s.arm(e, t, seq)
	return Timer{e, e.gen}
}

// RescheduleSeq re-arms tm at (t, seq) with seq from ReserveSeq. Like
// Reschedule it re-arms fired or cancelled events; stale handles are
// no-ops.
func (s *Sim) RescheduleSeq(tm Timer, t Time, seq uint64) {
	s.live("RescheduleSeq")
	s.checkFuture(t)
	e := tm.e
	if e == nil {
		panic("sim: rescheduling the zero Timer")
	}
	if e.gen != tm.gen {
		return // stale: the event was recycled into a new incarnation
	}
	if e.idx < 0 {
		s.arm(e, t, seq)
		return
	}
	// Pending: re-key in place, one sift instead of remove + push.
	if s.vacant {
		s.closeVacancy()
	}
	e.at = t
	s.rekey(int(e.idx), slot{t, seq, e})
}

// Cancel removes a scheduled event. Cancelling the zero Timer, a stale
// handle, or an already-run or already-cancelled event is a no-op. The
// handle stays valid: Reschedule can re-arm the event afterwards.
func (s *Sim) Cancel(tm Timer) {
	s.live("Cancel")
	e := tm.e
	if e == nil || e.gen != tm.gen || e.idx < 0 {
		return
	}
	s.remove(e)
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback. If the event already fired or was cancelled, it is re-armed.
// Rescheduling through a stale handle (the event was freed and recycled) is
// a complete no-op — it does not even consume a tie-break sequence number,
// so a stale call cannot perturb the deterministic event order.
// Rescheduling the zero Timer panics.
func (s *Sim) Reschedule(tm Timer, t Time) {
	s.live("Reschedule")
	e := tm.e
	if e == nil {
		panic("sim: rescheduling the zero Timer")
	}
	if e.gen != tm.gen {
		return
	}
	s.RescheduleSeq(tm, t, s.takeSeq())
}

// Free cancels tm if pending and returns its event to the free list. All
// handles to the event become stale and inert. Freeing the zero Timer or a
// stale handle is a no-op. Long-lived components release their timers here
// when they finish (for example a completed TCP flow's RTO timer) so
// high-churn workloads recycle instead of garbage-collecting them.
func (s *Sim) Free(tm Timer) {
	s.live("Free")
	e := tm.e
	if e == nil || e.gen != tm.gen {
		return
	}
	if e.idx >= 0 {
		s.remove(e)
	}
	s.recycle(e)
}

// Pending reports the number of queued events: after ReleaseRand, how
// many were queued when it ended the run.
func (s *Sim) Pending() int {
	if s.over {
		return s.left
	}
	if s.vacant {
		return len(s.heap) - 1
	}
	return len(s.heap)
}

// Stats is the kernel's work counters for a run since New: what it took
// to produce the run's result, no part of that result.
type Stats struct {
	HeapMax  int              // the most events pending at once
	SiftDown uint64           // loop iterations of the heap's siftDown
	SiftUp   uint64           // loop iterations of the heap's siftUp
	Events   [NumKinds]uint64 // events processed, by their handler's Kind
}

// Stats reports the kernel's work counters; Events sums to Processed.
func (s *Sim) Stats() Stats {
	return Stats{HeapMax: s.peak, SiftDown: s.siftDowns, SiftUp: s.siftUps, Events: s.kinds}
}

// step executes the earliest event. It reports false when the queue is empty.
//
//simlint:hot
func (s *Sim) step() bool {
	if s.vacant {
		s.closeVacancy()
	}
	n := len(s.heap)
	if n == 0 {
		return false
	}
	top := s.heap[0]
	s.heap[0].e = nil
	if n == 1 {
		s.heap = s.heap[:0]
	} else {
		s.vacant = true
	}
	if top.at < s.now {
		panic("sim: time went backwards")
	}
	e := top.e
	e.idx = -1
	s.now = top.at
	s.kinds[e.kind&(NumKinds-1)]++ // NumKinds is a power of two: no bounds check
	cb := e.cb
	if !e.retained {
		// Recycle before dispatch: a handler that immediately reschedules
		// (a self-ticking component) reuses this very event, so the steady
		// state runs on a single pooled Event.
		s.recycle(e)
	}
	cb.RunEvent(s.now)
	return true
}

// RunUntil executes events in order until virtual time exceeds end or the
// queue drains. The clock is left at min(end, last event time); if the
// queue drained earlier the clock advances to end so that measurement
// windows stay well-defined.
func (s *Sim) RunUntil(end Time) {
	s.live("RunUntil")
	for {
		if s.vacant {
			s.closeVacancy()
		}
		if len(s.heap) == 0 || s.heap[0].at > end {
			break
		}
		s.step()
	}
	if s.now < end {
		s.now = end
	}
}

// Run executes events until the queue drains.
func (s *Sim) Run() {
	s.live("Run")
	for s.step() {
	}
}
