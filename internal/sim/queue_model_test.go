package sim

import (
	"math/rand"
	"testing"
)

// Model-based test of the event queue. A byte string is a program: the
// interpreter below executes it against a real Sim and, in lockstep, against
// a reference that keeps every scheduled node in a flat list and finds the
// next one by scanning for the smallest (at, seq). Operations are issued both
// between runs and from inside running handlers, which is the only place the
// kernel's vacant root is open: Run and RunUntil return with it closed.
// TestEventQueueModel feeds it random programs and requires every
// vacant-root case to have occurred; FuzzEventQueue feeds it whatever the
// fuzzer finds. The reference also counts the events fired per Kind and
// the most events queued at once, which the kernel's Stats must match.

// qnode is one scheduled callback in both worlds: the Handler the kernel
// runs and the reference's record of where that callback should be.
type qnode struct {
	m        *qmodel
	tm       Timer // zero for fire-and-forget nodes
	retained bool
	freed    bool // the handle went stale (Free)
	queued   bool
	at       Time // last armed time: the event's at for a valid handle
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
	// leftVacant: the last handler returned with the root still vacant.
	leftVacant bool
	cover      map[string]int
	pops       []qpop // every event fired, in order
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
// so at the current instant it sorts before the root just taken — or a
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
		m.t.Fatalf("%s: Pending() = %d, reference %d (vacant=%v)", where, got, want, m.s.vacant)
	}
	m.most = max(m.most, m.queuedCount())
	if st := m.s.Stats(); st.HeapMax != m.most || st.Events != m.byKind {
		m.t.Fatalf("%s: Stats heap max %d and events by kind %v, reference %d and %v", where, st.HeapMax, st.Events, m.most, m.byKind)
	}
	if m.s.nextSeq != m.nextSeq {
		m.t.Fatalf("%s: kernel consumed %d seqs, reference %d", where, m.s.nextSeq, m.nextSeq)
	}
	for i, h := range m.handles {
		if h.tm.Valid() == h.freed || !h.freed && ((h.tm.e.idx >= 0) != h.queued || h.tm.e.at != h.at) {
			m.t.Fatalf("%s: handle %d: Valid=%v heap index=%d at=%d, reference freed=%v queued=%v at=%d",
				where, i, h.tm.Valid(), h.tm.e.idx, h.tm.e.at, h.freed, h.queued, h.at)
		}
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
	if m.s.vacant {
		m.cover["push into vacant root"]++
	}
	n.queued, n.at, n.seq = true, at, seq
}

// pick selects any handle ever issued, stale ones included.
func (m *qmodel) pick() *qnode {
	if len(m.handles) == 0 {
		return nil
	}
	return m.handles[m.next()%len(m.handles)]
}

// op executes one mutation in both worlds. self is the running node, or nil
// between runs.
func (m *qmodel) op(self *qnode) {
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
			return
		}
		at := m.when()
		if h == self && !h.freed {
			m.cover["re-arm self"]++
		}
		if s.vacant && !h.freed && h.queued {
			m.cover["re-key pending with vacancy open"]++
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
			return
		}
		if !h.freed && h.queued {
			m.removing()
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
			return
		}
		if !h.freed {
			if h == self {
				m.cover["free self"]++
			}
			if h.queued {
				m.removing()
			}
			h.queued, h.freed = false, true
		}
		s.Free(h.tm)
	case 11:
		m.stash = append(m.stash, m.reserve())
	}
}

// removing records which vacant-root cases a Cancel or Free of a queued
// event is about to exercise.
func (m *qmodel) removing() {
	if !m.s.vacant {
		return
	}
	m.cover["remove with vacancy open"]++
	if m.s.Pending() == 1 {
		m.cover["remove the only other event"]++
	}
}

// RunEvent is the handler of every node: it must be the node the reference
// expects, at the time it expects, and it then runs up to three operations
// from the program with the root vacant.
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
	m.check("handler entry")
	ops := m.next() % 4
	for i := 0; i < ops; i++ {
		m.op(n)
		m.check("after op in handler")
	}
	if m.leftVacant = m.s.vacant; m.leftVacant {
		m.cover["handler left the vacancy open"]++
	}
}

// runQueueProgram interprets prog, drains the queue and returns which
// cases it exercised.
func runQueueProgram(t testing.TB, prog []byte) map[string]int {
	m := playQueueProgram(t, New(1), prog)
	m.s.Run()
	if m.s.vacant {
		t.Fatal("Run returned with the root vacant")
	}
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
// events after it do not, and the root is not left vacant.
func (m *qmodel) runUntil(end Time) {
	m.leftVacant = false
	m.s.RunUntil(end)
	if n := m.min(); n != nil && n.at <= end {
		m.t.Fatalf("RunUntil(%d) returned with (at=%d seq=%d) still queued", end, n.at, n.seq)
	}
	if m.s.vacant {
		m.t.Fatalf("RunUntil(%d) returned with the root vacant", end)
	}
	m.now = end
	if m.leftVacant && m.queuedCount() > 0 {
		m.cover["RunUntil met its end with the vacancy open"]++
	}
}

func TestEventQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := make(map[string]int)
	for i := 0; i < 1500; i++ {
		prog := make([]byte, 20+rng.Intn(400))
		rng.Read(prog)
		for k, v := range runQueueProgram(t, prog) {
			total[k] += v
		}
	}
	for _, c := range []string{
		"push into vacant root",
		"re-arm self",
		"re-key pending with vacancy open",
		"remove with vacancy open",
		"remove the only other event",
		"free self",
		"handler left the vacancy open",
		"RunUntil met its end with the vacancy open",
		"a slice left events for the next",
	} {
		if total[c] == 0 {
			t.Errorf("case %q never occurred in 1500 random programs", c)
		}
	}
	t.Log(total)
}

// queueSeeds are hand-written programs, one per vacant-root case, each with
// the case it must reach. Outside a handler {0, 2, d} arms a timer at
// now+deltas[d] and {5, d} runs until then; a handler reads how many
// operations to run, then the operations.
var queueSeeds = []struct {
	prog  []byte
	cover string
}{
	// T0 fires with T1 queued and re-arms itself: the push lands in the root.
	{[]byte{0, 2, 2, 0, 2, 7, 5, 9, 1, 5, 0, 0, 3}, "re-arm self"},
	// T0 moves T1 ahead of everything queued (same instant).
	{[]byte{0, 2, 2, 0, 2, 9, 0, 2, 8, 5, 9, 1, 5, 1, 1, 0}, "re-key pending with vacancy open"},
	// T0 moves T1 behind everything queued, with a reserved seq.
	{[]byte{0, 2, 2, 0, 2, 4, 0, 2, 8, 5, 9, 1, 6, 1, 1, 9}, "re-key pending with vacancy open"},
	// T0 cancels T1, the only other event.
	{[]byte{0, 2, 2, 0, 2, 7, 5, 9, 1, 7, 1}, "remove the only other event"},
	// T0 frees itself while running.
	{[]byte{0, 2, 2, 0, 2, 7, 5, 9, 1, 9, 0, 0}, "free self"},
	// An event at end schedules nothing, so RunUntil compares the next event
	// with end while the root is vacant; the next run ends exactly on T1's
	// time and must fire it.
	{[]byte{0, 0, 2, 0, 2, 5, 5, 2, 0, 0, 0, 0, 5, 4, 0, 0}, "RunUntil met its end with the vacancy open"},
	// Timers at 1 and 8, run to 40 in slices of one tick: the slice that
	// ends at 1 fires T0 and leaves T1 for a later one.
	{[]byte{0, 2, 2, 0, 2, 7, 7, 8, 0, 0, 0}, "a slice left events for the next"},
}

func TestEventQueueSeeds(t *testing.T) {
	for i, seed := range queueSeeds {
		if cover := runQueueProgram(t, seed.prog); cover[seed.cover] == 0 {
			t.Errorf("seed %d did not reach %q: %v", i, seed.cover, cover)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, seed := range queueSeeds {
		f.Add(seed.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("longer programs add time, not cases")
		}
		runQueueProgram(t, prog)
	})
}
