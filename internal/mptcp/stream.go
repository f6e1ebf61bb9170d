package mptcp

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// Stream carries one finite connection-level byte stream over a Conn's
// subflows, playing the role of MPTCP's data sequence signal (DSS): a
// Scheduler maps data-level chunks onto subflow sequence ranges, and the
// receive side reassembles the data-level stream from the subflows'
// in-order deliveries.
//
// Scheduling is demand-driven: whenever a subflow runs out of assigned
// bytes it asks the scheduler for the next chunk. The default pull policy
// always grants the asking subflow, so faster subflows naturally pull more
// data — the throughput-equivalent of Linux MPTCP's default scheduler;
// adaptive policies (minrtt, ecf, roundrobin) may hold a chunk back for a
// better subflow, and the redundant policy duplicates every chunk on all
// subflows. Spans assigned to a subflow that is flapped down (see
// Conn.SetPathUp) are reinjected onto live subflows, so a mid-transfer
// path failure degrades the stream instead of stalling it.
//
// Completion means data-level in-order delivery of all TotalBytes — the
// metric a connection-level short flow reports.
type Stream struct {
	conn  *Conn
	sched Scheduler
	total int64
	chunk int64

	nextData int64        // next unassigned data-level byte
	nextRep  []int64      // redundant mode: per-subflow data cursor
	assigned [][]dataSpan // per-subflow FIFO of data spans, subflow order
	consumed []int64      // per-subflow data bytes already delivered
	hungry   []bool       // subflows that asked for data and were held back
	parked   []dataSpan   // reinjected spans awaiting any live subflow

	inOrder  int64        // contiguous data-level prefix delivered
	oooSpans netem.Ranges // delivered beyond the prefix; sorted, disjoint, not touching

	startAt sim.Time
	doneAt  sim.Time
	done    bool
	// OnComplete fires once the whole stream is delivered in order.
	OnComplete func(*Stream)
}

// dataSpan is a half-open data-level byte range.
type dataSpan struct {
	start, end int64
}

// DefaultChunk is the scheduling granularity when none is given: small
// enough to balance across asymmetric paths, large enough to amortize.
const DefaultChunk = 16 * 1024

// NewStreamSched attaches a finite stream of totalBytes to conn, scheduled
// by sched (see NewScheduler). Call after the subflows are
// added and routed but before conn.Start. The connection must have been
// created with an unbounded tcp.Config (no FlowBytes): the stream owns data
// assignment. totalBytes must be at least the number of subflows.
func NewStreamSched(conn *Conn, totalBytes, chunkBytes int64, sched Scheduler) *Stream {
	n := len(conn.subs)
	if n == 0 {
		panic(fmt.Sprintf("mptcp: %s: stream before subflows exist", conn.name))
	}
	if totalBytes < int64(n) {
		panic(fmt.Sprintf("mptcp: %s: stream of %d bytes across %d subflows", conn.name, totalBytes, n))
	}
	if conn.stream != nil {
		panic(fmt.Sprintf("mptcp: %s already carries a stream", conn.name))
	}
	if chunkBytes == 0 {
		chunkBytes = DefaultChunk
	}
	if chunkBytes < 1 {
		panic("mptcp: nonpositive chunk")
	}
	st := &Stream{
		conn:     conn,
		sched:    sched,
		total:    totalBytes,
		chunk:    chunkBytes,
		assigned: make([][]dataSpan, n),
		consumed: make([]int64, n),
		hungry:   make([]bool, n),
	}
	if sched.Replicates() {
		st.nextRep = make([]int64, n)
	}
	st.oooSpans.Bind(netem.PoolFor(conn.sim))
	for i, sf := range conn.subs {
		i, sf := i, sf
		if sf.Src.AssignedBytes() != 0 {
			panic(fmt.Sprintf("mptcp: %s/sub%d already has a finite flow", conn.name, i))
		}
		var span dataSpan
		if st.nextRep != nil {
			// Redundant mode: every subflow starts on the same first chunk
			// and walks the whole stream independently.
			size := st.chunk
			if size > st.total {
				size = st.total
			}
			span = dataSpan{0, size}
			st.nextRep[i] = size
		} else {
			// Seed every subflow with an initial span, holding back at least
			// one byte for each later subflow so none starts unbounded.
			avail := st.total - st.nextData - int64(n-i-1)
			size := st.chunk
			if size > avail {
				size = avail
			}
			span = dataSpan{st.nextData, st.nextData + size}
			st.nextData = span.end
		}
		st.assigned[i] = append(st.assigned[i], span)
		sf.Src.SetFlowBytes(span.end - span.start)
		sf.Src.OnStalled = func(*tcp.Src) { st.onStall(i) }
		sf.Sink.OnInOrder = func(bytes int64) { st.deliver(i, bytes) }
	}
	conn.stream = st
	return st
}

// Start launches the connection and stamps the stream's start time.
func (st *Stream) Start(at sim.Time) {
	st.startAt = at
	st.conn.Start(at)
}

// TotalBytes reports the stream length.
func (st *Stream) TotalBytes() int64 { return st.total }

// InOrderBytes reports the contiguous data-level prefix delivered so far.
func (st *Stream) InOrderBytes() int64 { return st.inOrder }

// DeliveredBytes reports the distinct data-level bytes delivered, in any
// order (a redundantly-scheduled duplicate counts once): the in-order
// prefix plus the out-of-order spans beyond it.
func (st *Stream) DeliveredBytes() int64 {
	n := st.inOrder
	for i := 0; i < st.oooSpans.Len(); i++ {
		b := st.oooSpans.Block(i)
		n += b.End - b.Start
	}
	return n
}

// SchedulerName reports the scheduling policy in force.
func (st *Stream) SchedulerName() string { return st.sched.Name() }

// Done reports completion (full in-order delivery).
func (st *Stream) Done() bool { return st.done }

// CompletionTime reports the stream duration. Calling it before Done is a
// bug (there is no completion instant yet) and panics.
func (st *Stream) CompletionTime() sim.Time {
	if !st.done {
		panic(fmt.Sprintf("mptcp: %s: CompletionTime before Done", st.conn.name))
	}
	return st.doneAt - st.startAt
}

// AssignedTo reports how many data bytes have been scheduled onto subflow i
// in total (delivered or not) — faster paths pull more, and a reinjected
// span counts on both its original and its rescue subflow.
func (st *Stream) AssignedTo(i int) int64 {
	var sum int64
	for _, sp := range st.assigned[i] {
		sum += sp.end - sp.start
	}
	// assigned holds only unconsumed spans; add the consumed prefix via the
	// subflow's cumulative delivery.
	return sum + st.consumed[i]
}

// onStall handles subflow i draining its assignment: in redundant mode the
// subflow advances its own cursor, otherwise it joins the hungry set and
// the scheduler decides who gets the next chunk.
func (st *Stream) onStall(i int) {
	if st.nextRep != nil {
		st.assignRep(i)
		return
	}
	st.hungry[i] = true
	st.pump()
}

// assignRep hands redundant subflow i the next chunk of its own walk.
func (st *Stream) assignRep(i int) {
	if st.nextRep[i] >= st.total {
		return // full coverage assigned; the subflow stays quiescent
	}
	end := st.nextRep[i] + st.chunk
	if end > st.total {
		end = st.total
	}
	span := dataSpan{st.nextRep[i], end}
	st.nextRep[i] = end
	st.assignSpan(i, span)
}

// pump offers the next chunks to hungry subflows. The scheduler may grant
// the asking subflow, redirect the chunk to a better one, or hold it back
// (a held-back subflow stays hungry and is re-offered on the next delivery
// or path event). Each granted chunk advances nextData, so the loop
// terminates at the stream end or on a pass with no grants.
//
// Holds are only safe while some up subflow still carries pending spans:
// their future deliveries are the events that re-offer the held data. When
// a full pass grants nothing and no live span remains in flight, waiting
// would deadlock — a source requests data at most once per stall, so no
// further event ever arrives (the window opening on a late ACK is invisible
// to the stream). The pump then overrides the scheduler and grants the
// first hungry up subflow; ExtendFlow buffers the bytes until its window
// reopens, so liveness never depends on headroom timing.
func (st *Stream) pump() {
	for progressed := true; progressed; {
		progressed = false
		for i := range st.hungry {
			if !st.hungry[i] || st.nextData >= st.total || !st.conn.PathUp(i) {
				continue
			}
			t := st.sched.Pick(st.conn, i, st.total-st.nextData)
			if t < 0 || t >= len(st.hungry) || !st.conn.PathUp(t) {
				continue
			}
			st.grant(t)
			if t == i {
				st.hungry[i] = false
			}
			progressed = true
		}
		if !progressed && st.nextData < st.total && !st.livePending() {
			for i := range st.hungry {
				if st.hungry[i] && st.conn.PathUp(i) {
					st.grant(i)
					st.hungry[i] = false
					progressed = true
					break
				}
			}
		}
	}
}

// grant assigns the next chunk of new data to subflow t.
func (st *Stream) grant(t int) {
	end := st.nextData + st.chunk
	if end > st.total {
		end = st.total
	}
	span := dataSpan{st.nextData, end}
	st.nextData = end
	st.assignSpan(t, span)
}

// livePending reports whether any up subflow still has assigned spans
// pending delivery — the condition under which a scheduler hold is safe,
// because each pending span guarantees a future delivery event that will
// re-run the pump.
func (st *Stream) livePending() bool {
	for i, spans := range st.assigned {
		if len(spans) > 0 && st.conn.PathUp(i) {
			return true
		}
	}
	return false
}

// assignSpan commits one data span to subflow t and extends its sender.
func (st *Stream) assignSpan(t int, span dataSpan) {
	st.assigned[t] = append(st.assigned[t], span)
	st.conn.subs[t].Src.ExtendFlow(span.end - span.start)
}

// pathChanged is notified by Conn.SetPathUp after subflow i's freeze state
// changes. Down strands the subflow's pending spans, so they are reinjected
// onto live subflows (parked if none is up); up flushes parked spans and
// re-offers data to subflows that starved while the path was down. The
// redundant policy needs neither: every subflow already carries the whole
// stream.
func (st *Stream) pathChanged(i int, up bool) {
	if st.done || st.nextRep != nil {
		return
	}
	if !up {
		st.reinjectFrom(i)
		return
	}
	st.flushParked()
	st.pump()
}

// reinjectFrom copies subflow i's pending spans onto live subflows. The
// originals stay in i's FIFO — data already in flight keeps draining, and
// if the path comes back the subflow finishes its assignment — so a span
// can arrive twice; reassembly tolerates the overlap.
func (st *Stream) reinjectFrom(i int) {
	for _, sp := range st.assigned[i] {
		if sp.end <= st.inOrder {
			continue // already delivered via the data-level prefix
		}
		if sp.start < st.inOrder {
			sp.start = st.inOrder
		}
		st.reinject(sp)
	}
}

// reinject places one stranded span: the scheduler names a target, any live
// subflow serves as fallback, and with every path down the span parks until
// one returns.
func (st *Stream) reinject(sp dataSpan) {
	t := st.sched.Pick(st.conn, ReinjectPick, sp.end-sp.start)
	if t < 0 || t >= len(st.assigned) || !st.conn.PathUp(t) {
		t = st.firstUp()
	}
	if t < 0 {
		st.parked = append(st.parked, sp)
		return
	}
	st.assignSpan(t, sp)
}

// flushParked re-places spans that were stranded while every path was down.
func (st *Stream) flushParked() {
	if len(st.parked) == 0 {
		return
	}
	parked := st.parked
	st.parked = nil
	for _, sp := range parked {
		if sp.end <= st.inOrder {
			continue
		}
		if sp.start < st.inOrder {
			sp.start = st.inOrder
		}
		st.reinject(sp)
	}
}

// firstUp returns the lowest-index live subflow, or -1.
func (st *Stream) firstUp() int {
	for i := range st.conn.subs {
		if st.conn.PathUp(i) {
			return i
		}
	}
	return -1
}

// deliver consumes n subflow-level in-order bytes, mapping them back to
// data-level spans (FIFO per subflow, since a subflow delivers in order),
// then re-offers data to any subflow the scheduler previously held back.
// A consumed span leaves the FIFO by copying the rest down, so the FIFO
// keeps its capacity and assignSpan's append does not reallocate.
//
//simlint:hot
func (st *Stream) deliver(i int, n int64) {
	for n > 0 {
		if len(st.assigned[i]) == 0 {
			panic(fmt.Sprintf("mptcp: %s/sub%d delivered %d unassigned bytes", st.conn.name, i, n))
		}
		sp := &st.assigned[i][0]
		m := sp.end - sp.start
		if m > n {
			m = n
		}
		st.emit(dataSpan{sp.start, sp.start + m})
		sp.start += m
		st.consumed[i] += m
		n -= m
		if sp.start == sp.end {
			st.assigned[i] = append(st.assigned[i][:0], st.assigned[i][1:]...)
		}
	}
	st.pump()
}

// emit folds one delivered data span into the reassembly state. Spans may
// overlap previously delivered data (redundant scheduling, reinjection);
// only the distinct bytes advance the stream. Merging leaves at most one
// span touching the in-order point, so one drain step suffices; the
// drained span leaves by Drop, which copies the rest down, as
// tcp.Sink.drainOOO does, so the buffer keeps its capacity.
//
//simlint:hot
func (st *Stream) emit(sp dataSpan) {
	if sp.end <= st.inOrder {
		return // duplicate of already-contiguous data
	}
	st.oooSpans.Insert(netem.Block{Start: max(sp.start, st.inOrder), End: sp.end})
	if first := st.oooSpans.Block(0); first.Start <= st.inOrder {
		st.inOrder = first.End
		st.oooSpans.Drop(1)
	}
	if st.inOrder >= st.total && !st.done {
		st.done = true
		st.doneAt = st.conn.sim.Now()
		if st.OnComplete != nil {
			st.OnComplete(st)
		}
	}
}
