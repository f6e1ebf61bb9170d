package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// Model-based test of the event queue. A byte string is a program: the
// interpreter below executes it against a real Sim and, in lockstep, against
// a reference that keeps every scheduled node in a flat list and finds the
// next one by scanning for the smallest (at, seq). Operations are issued both
// between runs and from inside running handlers. With runCap lowered to
// smallRunCap, a few events reach the far heap, so the programs move
// events between the run and the far heap; after every operation the
// queue's own structure is checked too (checkTiers). TestEventQueueModel
// feeds it random programs and requires every tier case to have occurred;
// FuzzEventQueue feeds it whatever the fuzzer finds. The reference also
// counts the events fired per Kind and the most events queued at once,
// which the kernel's Stats must match.

// qnode is one scheduled callback in both worlds: the Handler the kernel
// runs and the reference's record of where that callback should be.
type qnode struct {
	m        *qmodel
	tm       Timer // zero for fire-and-forget nodes
	retained bool
	freed    bool // the handle went stale (Free)
	queued   bool
	at       Time // last armed key: the event's slot's while it is queued
	seq      uint64
	// kind spreads the nodes over every Kind, so the counts check that an
	// event keeps the kind it was armed with however it is re-armed, and
	// that a recycled event takes its new one.
	kind Kind
}

type qmodel struct {
	t    testing.TB
	s    *Sim
	prog []byte
	pc   int

	now     Time
	nextSeq uint64
	nodes   []*qnode // every node that may be queued
	handles []*qnode // every retained node ever made, stale ones included
	stash   []uint64 // seqs reserved earlier, not yet armed (netem.Pipe's pattern)
	fired   int
	byKind  [NumKinds]uint64 // events fired per Kind
	most    int              // the most nodes queued at once
	moves   uint64           // the kernel's RunMoves at the last check
	// wasFull and emptied follow the run from full to empty to full.
	wasFull, emptied bool
	farLen           int      // the far heap's length at the last check
	inRun            []*Event // the run's events before the current operation
	cover            map[string]int
	pops             []qpop // every event fired, in order
}

// smallRunCap is the run's capacity the model runs most programs at, so
// that a short program reaches the far heap.
const smallRunCap = 4

// withRunCap sets runCap to n until t ends.
func withRunCap(t testing.TB, n int) {
	old := runCap
	runCap = n
	t.Cleanup(func() { runCap = old })
}

// slotOf returns the slot that holds e, ok false when e is not queued.
func (s *Sim) slotOf(e *Event) (x slot, ok bool) {
	switch {
	case e.idx < 0:
		return slot{}, false
	case e.far:
		return s.far[e.idx], true
	default:
		return s.run[e.idx], true
	}
}

// qpop is an event as it fired: its time and tie-break number.
type qpop struct {
	at  Time
	seq uint64
}

// next returns the program's next byte, or 0 once it is exhausted (handlers
// then do nothing, so the queue drains).
func (m *qmodel) next() int {
	if m.pc >= len(m.prog) {
		return 0
	}
	b := m.prog[m.pc]
	m.pc++
	return int(b)
}

// deltas mixes ties (0), near futures that interleave with what is queued,
// and far futures that sort after everything.
var deltas = [...]Time{0, 0, 1, 1, 2, 3, 5, 8, 40, 1000}

func (m *qmodel) when() Time { return m.now + deltas[m.next()%len(deltas)] }

func (m *qmodel) takeSeq() uint64 {
	q := m.nextSeq
	m.nextSeq++
	return q
}

// reserve takes a seq from the kernel and checks it against the reference.
func (m *qmodel) reserve() uint64 {
	seq := m.takeSeq()
	if got := m.s.ReserveSeq(); got != seq {
		m.t.Fatalf("ReserveSeq = %d, reference %d", got, seq)
	}
	return seq
}

// reserved returns the oldest stashed seq — older than the running event's,
// so at the current instant it sorts before the event just popped — or a
// fresh one.
func (m *qmodel) reserved() uint64 {
	if len(m.stash) == 0 {
		return m.reserve()
	}
	seq := m.stash[0]
	m.stash = m.stash[1:]
	return seq
}

// min is the reference's pop: the queued node with the smallest (at, seq).
func (m *qmodel) min() *qnode {
	var best *qnode
	for _, n := range m.nodes {
		if !n.queued {
			continue
		}
		if best == nil || n.at < best.at || (n.at == best.at && n.seq < best.seq) {
			best = n
		}
	}
	return best
}

func (m *qmodel) queuedCount() int {
	c := 0
	for _, n := range m.nodes {
		if n.queued {
			c++
		}
	}
	return c
}

// check compares everything observable: the clock, the queue length, the
// next tie-break number and every handle ever issued.
func (m *qmodel) check(where string) {
	m.t.Helper()
	if got := m.s.Now(); got != m.now {
		m.t.Fatalf("%s: Now() = %d, reference %d", where, got, m.now)
	}
	if got, want := m.s.Pending(), m.queuedCount(); got != want {
		m.t.Fatalf("%s: Pending() = %d, reference %d (run %d, far heap %d)", where, got, want, m.s.runLen, len(m.s.far))
	}
	m.checkTiers(where)
	m.most = max(m.most, m.queuedCount())
	if st := m.s.Stats(); st.HeapMax != m.most || st.Events != m.byKind {
		m.t.Fatalf("%s: Stats heap max %d and events by kind %v, reference %d and %v", where, st.HeapMax, st.Events, m.most, m.byKind)
	}
	if m.s.nextSeq != m.nextSeq {
		m.t.Fatalf("%s: kernel consumed %d seqs, reference %d", where, m.s.nextSeq, m.nextSeq)
	}
	for i, h := range m.handles {
		if h.tm.Valid() == h.freed {
			m.t.Fatalf("%s: handle %d: Valid=%v, reference freed=%v", where, i, h.tm.Valid(), h.freed)
		}
		if h.freed {
			continue
		}
		x, ok := m.s.slotOf(h.tm.e)
		if ok != h.queued || ok && (x.at != h.at || x.seq != h.seq) {
			m.t.Fatalf("%s: handle %d: queued=%v at (%d, %d), reference queued=%v at (%d, %d)",
				where, i, ok, x.at, x.seq, h.queued, h.at, h.seq)
		}
	}
}

// checkTiers checks the queue's structure: the run holds at most runCap
// events, sorted, each in the slot its idx names; the far heap is a heap
// whose events' idx name their slots; every run key sorts before every
// far key; and the operation since the last check moved at most runCap
// run slots.
func (m *qmodel) checkTiers(where string) {
	m.t.Helper()
	s := m.s
	if s.runLen > runCap {
		m.t.Fatalf("%s: the run holds %d events, more than runCap %d", where, s.runLen, runCap)
	}
	if moved := s.runMoves - m.moves; moved > uint64(runCap) {
		m.t.Fatalf("%s: one operation moved %d run slots, more than runCap %d", where, moved, runCap)
	}
	m.moves = s.runMoves
	m.farLen = len(s.far)
	for k := range s.runLen {
		i := s.runAt(k)
		x := s.run[i]
		if x.e.far || int(x.e.idx) != i {
			m.t.Fatalf("%s: the run's event %d sits in ring slot %d, its idx says %d (far %v)", where, k, i, x.e.idx, x.e.far)
		}
		if k > 0 && !s.run[s.runAt(k-1)].before(x) {
			m.t.Fatalf("%s: the run's events %d and %d are out of order", where, k-1, k)
		}
	}
	for i, x := range s.far {
		if !x.e.far || int(x.e.idx) != i {
			m.t.Fatalf("%s: the far heap's slot %d holds an event whose idx says %d (far %v)", where, i, x.e.idx, x.e.far)
		}
		if i > 0 && x.before(s.far[(i-1)>>2]) {
			m.t.Fatalf("%s: the far heap's slot %d sorts before its parent", where, i)
		}
	}
	if s.runLen > 0 && len(s.far) > 0 && !s.run[s.runAt(s.runLen-1)].before(s.far[0]) {
		m.t.Fatalf("%s: the run's last key (%d, %d) does not sort before the far heap's minimum (%d, %d)",
			where, s.run[s.runAt(s.runLen-1)].at, s.run[s.runAt(s.runLen-1)].seq, s.far[0].at, s.far[0].seq)
	}
	switch s.runLen {
	case runCap:
		if m.emptied {
			m.cover["the run emptied and filled again"]++
		}
		m.wasFull = true
	case 0:
		m.emptied = m.wasFull
	}
}

func (m *qmodel) newNode(retained bool) *qnode {
	n := &qnode{m: m, retained: retained, kind: Kind(len(m.nodes) % int(NumKinds))}
	m.nodes = append(m.nodes, n)
	if retained {
		m.handles = append(m.handles, n)
	}
	return n
}

func (m *qmodel) enqueue(n *qnode, at Time, seq uint64) {
	n.queued, n.at, n.seq = true, at, seq
}

// pick selects any handle ever issued, stale ones included.
func (m *qmodel) pick() *qnode {
	if len(m.handles) == 0 {
		return nil
	}
	return m.handles[m.next()%len(m.handles)]
}

// op executes one mutation in both worlds, and records a spill: an event
// that was in the run before it and is in the far heap after, other than
// the one a re-key moved there. self is the running node, or nil between
// runs.
func (m *qmodel) op(self *qnode) {
	s := m.s
	m.inRun = m.inRun[:0]
	for k := range s.runLen {
		m.inRun = append(m.inRun, s.run[s.runAt(k)].e)
	}
	moved := m.mutate(self)
	for _, e := range m.inRun {
		if e.idx >= 0 && e.far && e != moved {
			m.cover["spill to the far heap"]++
		}
	}
}

// tier names the tier that holds e.
func tier(e *Event) string {
	if e.far {
		return "the far heap"
	}
	return "the run"
}

// mutate is op's mutation. It returns the event a re-key moved, if any.
func (m *qmodel) mutate(self *qnode) (moved *Event) {
	s := m.s
	switch code := m.next() % 12; code {
	case 0, 1: // fire-and-forget (1 was the payload kind: committed programs keep their meaning)
		n, at := m.newNode(false), m.when()
		m.enqueue(n, at, m.takeSeq())
		s.Schedule(at, n, n.kind)
	case 2:
		n, at := m.newNode(true), m.when()
		m.enqueue(n, at, m.takeSeq())
		n.tm = s.ScheduleTimer(at, n, n.kind)
	case 3: // reserved seq
		n, at := m.newNode(true), m.when()
		seq := m.reserved()
		m.enqueue(n, at, seq)
		n.tm = s.ScheduleTimerSeq(at, seq, n, n.kind)
	case 4: // closure
		n, at := m.newNode(true), m.when()
		n.kind = KindOther // the kernel runs a closure, which names no kind
		m.enqueue(n, at, m.takeSeq())
		n.tm = s.At(at, func() { n.RunEvent(s.Now()) })
	case 5, 6: // Reschedule / RescheduleSeq, any handle or self
		h := m.pick()
		if self != nil && self.retained && m.next()%3 == 0 {
			h = self
		}
		if h == nil {
			return nil
		}
		at := m.when()
		if h == self && !h.freed {
			m.cover["re-arm self"]++
		}
		if !h.freed && h.queued {
			moved = h.tm.e
			from := tier(moved)
			defer func() {
				if to := tier(moved); to != from {
					m.cover["re-key from "+from+" to "+to]++
				}
			}()
		}
		if code == 5 {
			if !h.freed { // a stale Reschedule consumes no seq
				h.queued = false
				m.enqueue(h, at, m.takeSeq())
			}
			s.Reschedule(h.tm, at)
		} else {
			seq := m.reserved() // the caller's to spend, on a stale handle too
			if !h.freed {
				h.queued = false
				m.enqueue(h, at, seq)
			}
			s.RescheduleSeq(h.tm, at, seq)
		}
	case 7, 8: // Cancel
		h := m.pick()
		if h == nil {
			s.Cancel(Timer{})
			return nil
		}
		if !h.freed && h.queued {
			m.cover["cancel in "+tier(h.tm.e)]++
			h.queued = false
		}
		s.Cancel(h.tm)
	case 9, 10: // Free, any handle or self
		h := m.pick()
		if self != nil && self.retained && m.next()%3 == 0 {
			h = self
		}
		if h == nil {
			s.Free(Timer{})
			return nil
		}
		if !h.freed {
			if h == self {
				m.cover["free self"]++
			}
			if h.queued {
				m.cover["free in "+tier(h.tm.e)]++
			}
			h.queued, h.freed = false, true
		}
		s.Free(h.tm)
	case 11:
		m.stash = append(m.stash, m.reserve())
	}
	return moved
}

// RunEvent is the handler of every node: it must be the node the reference
// expects, at the time it expects, and it then runs up to three operations
// from the program. A far heap shorter at its entry than at the last check
// means the pop refilled the run: nothing else ran in between.
func (n *qnode) RunEvent(now Time) {
	m := n.m
	if want := m.min(); want != n || now != n.at {
		m.t.Fatalf("event %d fired out of order at %d: (at=%d seq=%d queued=%v), reference expects %+v",
			m.fired, now, n.at, n.seq, n.queued, want)
	}
	n.queued = false
	m.now = now
	m.fired++
	m.byKind[n.kind]++
	m.pops = append(m.pops, qpop{now, n.seq})
	if len(m.s.far) < m.farLen {
		m.cover["refill the run from the far heap"]++
	}
	m.check("handler entry")
	ops := m.next() % 4
	for i := 0; i < ops; i++ {
		m.op(n)
		m.check("after op in handler")
	}
}

// runQueueProgram interprets prog, drains the queue and returns which
// cases it exercised.
func runQueueProgram(t testing.TB, prog []byte) map[string]int {
	m := playQueueProgram(t, New(1), prog)
	m.s.Run()
	m.check("drained")
	if n := m.min(); n != nil {
		t.Fatalf("drained, but the reference still holds (at=%d seq=%d)", n.at, n.seq)
	}
	return m.cover
}

// playQueueProgram interprets prog on s, a new Sim, and returns the model,
// with whatever the program left queued still queued.
func playQueueProgram(t testing.TB, s *Sim, prog []byte) *qmodel {
	m := &qmodel{t: t, s: s, prog: prog, cover: make(map[string]int)}
	for m.pc < len(m.prog) {
		switch code := m.next() % 8; code {
		default:
			m.op(nil)
		case 5, 6:
			m.runUntil(m.when())
		case 7: // RunUntil in slices of 1-4 ticks, as scenario's advanceUntil runs
			end, width := m.when(), Time(1+m.next()%4)
			for at := m.now; at < end; {
				at = min(at+width, end)
				m.runUntil(at)
				if n := m.min(); at < end && n != nil && n.at <= end {
					m.cover["a slice left events for the next"]++
				}
			}
		}
		m.check("between runs")
	}
	return m
}

// runUntil runs the kernel and the reference to end: events at end fire,
// events after it do not.
func (m *qmodel) runUntil(end Time) {
	m.s.RunUntil(end)
	if n := m.min(); n != nil && n.at <= end {
		m.t.Fatalf("RunUntil(%d) returned with (at=%d seq=%d) still queued", end, n.at, n.seq)
	}
	m.now = end
}

// queueCases are the cases random programs must all reach: the tier cases
// at smallRunCap, and three of handlers and slices.
var queueCases = []string{
	"spill to the far heap",
	"refill the run from the far heap",
	"re-key from the run to the far heap",
	"re-key from the far heap to the run",
	"cancel in the run",
	"cancel in the far heap",
	"free in the run",
	"free in the far heap",
	"the run emptied and filled again",
	"re-arm self",
	"free self",
	"a slice left events for the next",
}

func TestEventQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := make(map[string]int)
	run := func(n int) {
		for range n {
			prog := make([]byte, 20+rng.Intn(400))
			rng.Read(prog)
			for k, v := range runQueueProgram(t, prog) {
				total[k] += v
			}
		}
	}
	// At the production runCap a random program seldom holds more events
	// than the run does: these check the run alone, and count toward no
	// case.
	run(300)
	clear(total)
	withRunCap(t, smallRunCap)
	run(1500)
	for _, c := range queueCases {
		if total[c] == 0 {
			t.Errorf("case %q never occurred in 1500 random programs at smallRunCap", c)
		}
	}
	t.Log(total)
}

// fillFive arms five timers, T0 to T4, at 1, 1, 2, 3 and 5: at smallRunCap
// the first four fill the run and T4 goes to the far heap.
var fillFive = []byte{0, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 5, 0, 2, 6}

// queueSeeds are hand-written programs, one per case, each with the case
// it must reach; all but the last run at smallRunCap. Outside a handler
// {0, 2, d} arms a timer at now+deltas[d], {0, 5, h, d} re-arms handle h
// at now+deltas[d], {0, 7, h} cancels it, {0, 9, h} frees it, and {5, d}
// runs until now+deltas[d]; a handler reads how many operations to run,
// then the operations.
var queueSeeds = []struct {
	prog  []byte
	cover string
}{
	// T0 to T3 fill the run; T4, at 0, sorts before T3, which spills.
	{[]byte{0, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 5, 0, 2, 0}, "spill to the far heap"},
	// T4 sorts after the full run; the run drains and is refilled with it.
	{fillFive, "refill the run from the far heap"},
	// T0 moves past T4, the far heap's minimum.
	{append(slices.Clip(fillFive), 0, 5, 0, 9), "re-key from the run to the far heap"},
	// T4 moves before T3, which spills.
	{append(slices.Clip(fillFive), 0, 5, 4, 0), "re-key from the far heap to the run"},
	{[]byte{0, 2, 2, 0, 7, 0}, "cancel in the run"},
	{append(slices.Clip(fillFive), 0, 7, 4), "cancel in the far heap"},
	{[]byte{0, 2, 2, 0, 9, 0}, "free in the run"},
	{append(slices.Clip(fillFive), 0, 9, 4), "free in the far heap"},
	// Four timers fill the run, fire (their handlers run no operations)
	// and four more fill it again.
	{[]byte{0, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 5, 5, 9, 0, 0, 0, 0, 0, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 5},
		"the run emptied and filled again"},
	// T0 fires with T1 queued and re-arms itself.
	{[]byte{0, 2, 2, 0, 2, 7, 5, 9, 1, 5, 0, 0, 3}, "re-arm self"},
	// T0 frees itself while running.
	{[]byte{0, 2, 2, 0, 2, 7, 5, 9, 1, 9, 0, 0}, "free self"},
	// Timers at 1 and 8, run to 40 in slices of one tick: the slice that
	// ends at 1 fires T0 and leaves T1 for a later one.
	{[]byte{0, 2, 2, 0, 2, 7, 7, 8, 0, 0, 0}, "a slice left events for the next"},
	// At the production runCap: 130 events, thirteen at each delta, more
	// than the run holds.
	{bigQueueProgram(), "spill to the far heap"},
}

// bigQueueProgram arms 130 fire-and-forget events, at every delta in turn.
func bigQueueProgram() []byte {
	var prog []byte
	for i := range 130 {
		prog = append(prog, 0, 0, byte(i%len(deltas)))
	}
	return prog
}

func TestEventQueueSeeds(t *testing.T) {
	last := len(queueSeeds) - 1
	for i, seed := range queueSeeds[:last] {
		t.Run("", func(t *testing.T) {
			withRunCap(t, smallRunCap)
			if cover := runQueueProgram(t, seed.prog); cover[seed.cover] == 0 {
				t.Errorf("seed %d did not reach %q: %v", i, seed.cover, cover)
			}
		})
	}
	cover := runQueueProgram(t, queueSeeds[last].prog)
	for _, c := range []string{queueSeeds[last].cover, "refill the run from the far heap"} {
		if cover[c] == 0 {
			t.Errorf("the program of 130 events at runCap %d did not reach %q: %v", runCap, c, cover)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, seed := range queueSeeds {
		f.Add(seed.prog)
	}
	withRunCap(f, smallRunCap)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("longer programs add time, not cases")
		}
		runQueueProgram(t, prog)
	})
}
