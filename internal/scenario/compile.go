package scenario

import (
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// CompiledLink is one built link with the handles the invariant checks and
// measurements need.
type CompiledLink struct {
	Spec  LinkSpec
	Queue netem.Queue
	// Pipe is the link's propagation pipe: the network's one pipe of the
	// link's delay, shared with every other hop of that delay, unless a
	// timeline setpoint retargets the delay, which gives the link a pipe of
	// its own (SetDelay is only for a pipe that carries one link).
	Pipe *netem.Pipe
	// Loss is the random-loss element, nil when LossPct is 0 and no
	// timeline setpoint targets this link's loss.
	Loss *netem.RandomLoss
	// LimitPkts is the hard occupancy bound of Queue.
	LimitPkts int
}

// Flow is one built flow replica. Multipath flows expose Conn; AlgoTCP
// flows expose the Src/Sink pair directly. Either way Sinks[i] is the
// receiving endpoint of path i (FlowSpec.Paths order) and Srcs[i] its
// sender.
type Flow struct {
	Name string
	// Algorithm is AlgoTCP or the coupled controller's name.
	Algorithm string

	// Conn is the multipath connection (nil for AlgoTCP flows).
	Conn *mptcp.Conn
	// Stream is the scheduled finite byte stream (nil unless the spec sets
	// FlowSpec.Scheduler).
	Stream *mptcp.Stream

	Srcs  []*tcp.Src
	Sinks []*tcp.Sink

	// Window holds, once Net.Run returns, the in-order bytes Sinks[i] took
	// in over the measured window (all of them, for a flow added after the
	// warm-up closed).
	Window []int64

	// AckTap counts ACKs delivered back to this flow's senders, for the
	// conservation invariant.
	AckTap *netem.Tap
}

// GoodputBytes sums in-order bytes delivered across the flow's paths.
func (f *Flow) GoodputBytes() int64 {
	var total int64
	for _, k := range f.Sinks {
		total += k.GoodputBytes()
	}
	return total
}

// WindowBytes sums Window over the flow's paths.
func (f *Flow) WindowBytes() int64 {
	var total int64
	for _, b := range f.Window {
		total += b
	}
	return total
}

// GroupWindowBytes sums the measured-window bytes of a whole group.
func GroupWindowBytes(group []*Flow) int64 {
	var total int64
	for _, f := range group {
		total += f.WindowBytes()
	}
	return total
}

// SentPkts sums data segments transmitted (retransmissions included)
// across the flow's senders.
func (f *Flow) SentPkts() int64 {
	var total int64
	for _, s := range f.Srcs {
		total += s.Stats().SentPkts
	}
	return total
}

// Net is a live network: the simulation plus handles to every element the
// runtime measures. It has two front-ends. Compile builds one from a
// declarative Spec; NewNet, AddLink, AddFlow and AddArrivals build one in
// code, for a network a Spec cannot describe (the fat tree, fattree.go) or a
// flow that joins while the simulation runs. Compile is written in the
// second, so both run, and are checked, the same way (Net.Run).
type Net struct {
	Name string
	Seed int64
	// Spec is what Compile built the network from; nil for one built in code.
	Spec *Spec
	Sim  *sim.Sim

	// Warmup and End bound the measured window as exact event times.
	Warmup, End sim.Time
	// warmupSec and durationSec are the window as the caller wrote it
	// (Spec.WarmupSec and DurationSec for a compiled network): reported
	// rates divide by durationSec, and a trip through sim.Time truncates.
	warmupSec, durationSec float64

	Links []*CompiledLink
	// Flows lists every flow in creation order, those added mid-run
	// included; Groups indexes a compiled network's by Spec.Flows entry.
	Flows  []*Flow
	Groups [][]*Flow

	// Rev is the return link shared by every flow whose Route names no
	// reverse links (nil when the network has none).
	Rev *netem.Link
	// pipes holds the network's one pipe per distinct constant delay, which
	// carries every hop of that delay: link, reverse link and access hops
	// alike. private holds the pipes of links whose delay a timeline
	// setpoint retargets, because SetDelay is only for a pipe that carries
	// one link. The two together are every pipe, for in-flight accounting.
	pipes, private []*netem.Pipe
	// timeline is the compiled spec's mutation list; pathFlows indexes, per
	// Spec.Paths entry, every sender routed over that path, for its flaps.
	timeline  []TimelineEvent
	pathFlows [][]pathRef
	// traces lists the periodic observations Run arms, in registration
	// order; running is set once Run starts, after which none may register
	// and Run refuses to start again.
	traces  []*Trace
	running bool
}

// NewNet starts an empty network on a fresh simulation, measured over
// [warmup, warmup+duration].
func NewNet(name string, seed int64, warmup, duration sim.Time) *Net {
	return &Net{
		Name: name, Seed: seed, Sim: sim.New(seed),
		Warmup: warmup, End: warmup + duration,
		warmupSec: warmup.Sec(), durationSec: duration.Sec(),
	}
}

// Group returns the replicas of the first Spec.Flows entry called name, or
// nil when the spec lists no such group.
func (n *Net) Group(name string) []*Flow {
	for i := range n.Spec.Flows {
		if n.Spec.Flows[i].Name == name {
			return n.Groups[i]
		}
	}
	return nil
}

// Compile validates the spec and builds its network. Element creation
// order is part of the contract — links first, then the reverse link, then
// flows in listing order, each replica drawing its start jitter as it is
// created — because it fixes how a spec consumes its seed's random stream,
// and the experiment goldens are byte-exact functions of that stream.
func Compile(sp *Spec) (*Net, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	n := NewNet(sp.Name, sp.Seed, sim.Seconds(sp.WarmupSec), sim.Seconds(sp.DurationSec))
	n.Spec, n.warmupSec, n.durationSec = sp, sp.WarmupSec, sp.DurationSec
	n.timeline = sp.Timeline
	n.pathFlows = make([][]pathRef, len(sp.Paths))
	s := n.Sim

	// The timeline driver is armed first — before any flow-start event — so
	// a t=0 setpoint is in effect for the very first transmission. Arming
	// draws no randomness and adds no events to a timeline-free spec, so
	// existing scenarios stay byte-identical.
	if len(sp.Timeline) > 0 {
		s.Schedule(sim.Seconds(sp.Timeline[0].AtSec), &timelineDriver{net: n})
	}

	for _, ls := range sp.Links {
		n.AddLink(ls)
	}
	revRate, revDelay := sp.ReverseRateMbps, sp.ReverseDelayMs
	if revRate == 0 {
		revRate = defaultReverseRateMbps
	}
	if revDelay == 0 {
		revDelay = defaultReverseDelayMs
	}
	n.Rev = &netem.Link{
		Q: netem.NewQueue(s, netem.LinkConfig{
			RateBps:      int64(revRate * 1e6),
			Kind:         netem.QueueDropTail,
			DropTailPkts: 10_000,
		}, "rev/q"),
		P: n.pipe(sim.Millis(revDelay), false),
	}

	n.Groups = make([][]*Flow, len(sp.Flows))
	routes := make([]Route, 0, 4) // stays on the stack for the usual few paths
	for fi := range sp.Flows {
		fs := &sp.Flows[fi]
		name := fs.Name
		if name == "" {
			name = fmt.Sprintf("flow%d", fi)
		}
		routes = routes[:0]
		for _, pi := range fs.Paths {
			routes = append(routes, Route{DelayMs: sp.Paths[pi].DelayMs, Fwd: sp.Paths[pi].Links})
		}
		for r := 0; r < fs.count(); r++ {
			at := sim.Seconds(fs.StartSec)
			if fs.StartJitter {
				at += sim.RandBelow(s.Rand(), startSpread)
			}
			f := n.AddFlow(fmt.Sprintf("%s-%d", name, r), fs, routes, at)
			n.Groups[fi] = append(n.Groups[fi], f)
			for i, pi := range fs.Paths {
				n.pathFlows[pi] = append(n.pathFlows[pi], pathRef{flow: f, sub: i})
			}
		}
	}
	return n, nil
}

// AddLink builds one unidirectional link — a random-loss element when
// LossPct is set or a timeline setpoint retargets the link's loss, the
// queue, the propagation pipe — and returns it; its index in Links is what a
// Route names. Links are added before Run.
func (n *Net) AddLink(ls LinkSpec) *CompiledLink {
	cfg := netem.LinkConfig{RateBps: int64(ls.RateMbps * 1e6)}
	switch ls.Queue {
	case QueueDropTail:
		cfg.Kind = netem.QueueDropTail
		cfg.DropTailPkts = ls.BufferPkts // 0 keeps the 100-packet default
	case QueueRED, "": // empty means RED; Validate rejects anything else
		cfg.Kind = netem.QueueRED
		if ls.BufferPkts > 0 {
			red := netem.PaperRED(cfg.RateBps)
			red.LimitPkts = ls.BufferPkts
			cfg.REDCfg = &red
		}
	}
	delay, loss := n.retargets(len(n.Links))
	cl := &CompiledLink{
		Spec:      ls,
		Queue:     netem.NewQueue(n.Sim, cfg, fmt.Sprintf("link%d/q", len(n.Links))),
		Pipe:      n.pipe(sim.Millis(ls.DelayMs), delay),
		LimitPkts: ls.bufferLimit(),
	}
	// A loss setpoint will retarget a lossless link: build the element now.
	// An idle one draws no randomness, so the spec's RNG stream is unchanged
	// until the setpoint fires.
	if ls.LossPct > 0 || loss {
		cl.Loss = netem.NewRandomLoss(n.Sim, ls.LossPct/100)
	}
	n.Links = append(n.Links, cl)
	return cl
}

// pipe returns the pipe for a hop of constant delay d: the network's one
// pipe of that delay, built on first use. A constant delay makes admission
// order delivery order, so packets of any number of hops share its ring
// with the (deliverAt, seq) keys each would have had in a pipe of its own.
// A private pipe, for a link whose delay a timeline setpoint retargets, is
// built anew and shared with nothing.
func (n *Net) pipe(d sim.Time, private bool) *netem.Pipe {
	if !private {
		for _, p := range n.pipes {
			if p.Delay() == d {
				return p
			}
		}
	}
	p := netem.NewPipe(n.Sim, d, d.String())
	if private {
		n.private = append(n.private, p)
	} else {
		n.pipes = append(n.pipes, p)
	}
	return p
}

// Route is one subflow's wiring, by index into Net.Links.
type Route struct {
	// DelayMs is the access delay in front of Fwd: the subflow's data
	// crosses the network's shared pipe of that delay, which carries every
	// hop of equal constant delay, before its first link. Zero routes through
	// no pipe at all: even a 0 ms pipe reserves kernel sequence numbers and
	// defers each packet by one event, so eliding it is what lets a network
	// whose delay lives on the links themselves (the fat tree) keep its
	// event order.
	DelayMs float64
	// Fwd lists the links data crosses, in order; Rev the links ACKs cross
	// on the way back, nil for the network's shared return link.
	Fwd, Rev []int
}

// route builds the route head, then each crossed link's hops in order —
// its loss element (if any), queue and pipe — then tail, in one list of
// exactly its length. head may be nil.
func (n *Net) route(head netem.Node, links []int, tail ...netem.Node) *netem.Route {
	size := len(tail)
	if head != nil {
		size++
	}
	for _, li := range links {
		size += 2
		if n.Links[li].Loss != nil {
			size++
		}
	}
	hops := make([]netem.Node, 0, size)
	if head != nil {
		hops = append(hops, head)
	}
	for _, li := range links {
		l := n.Links[li]
		if l.Loss != nil {
			hops = append(hops, l.Loss)
		}
		hops = append(hops, l.Queue, l.Pipe)
	}
	return netem.NewRoute(append(hops, tail...)...)
}

// wire builds both directions of one subflow between src and sink; ACKs
// pass the flow's tap last, whichever way they return.
func (n *Net) wire(f *Flow, r Route, src *tcp.Src, sink *tcp.Sink) {
	var trim netem.Node
	if r.DelayMs > 0 {
		trim = n.pipe(sim.Millis(r.DelayMs), false)
	}
	src.SetRoute(n.route(trim, r.Fwd, sink))
	if r.Rev != nil {
		sink.SetRoute(n.route(nil, r.Rev, f.AckTap, src))
		return
	}
	sink.SetRoute(netem.NewRoute(n.Rev.Q, n.Rev.P, f.AckTap, src))
}

// AddFlow wires one flow and schedules its start at the absolute time
// start, before Run or from an event while it runs. fs supplies the
// transport — Algorithm, FlowBytes, Scheduler, ChunkBytes, KeepSlowStart,
// MaxCwndPkts, NoIncreaseCap, StopSec, with the meanings and the
// combinations Validate documents — and is not retained; its placement
// fields (Paths, Count, StartSec, StartJitter) are Compile's and are not
// read. routes gives one subflow each (exactly one for AlgoTCP).
//
// Set-up allocates by design, once per flow and never per packet, also when
// an arrival event is what calls it.
//
//simlint:cold
func (n *Net) AddFlow(name string, fs *FlowSpec, routes []Route, start sim.Time) *Flow {
	f := &Flow{Name: name, Algorithm: fs.Algorithm, AckTap: &netem.Tap{}}
	cfg := tcp.Config{
		FlowBytes:     fs.FlowBytes,
		MaxCwndPkts:   fs.MaxCwndPkts,
		NoIncreaseCap: fs.NoIncreaseCap,
	}
	if fs.Scheduler != "" {
		// A scheduled stream owns data assignment: subflows start unbounded
		// and the stream portions FlowBytes out in chunks.
		cfg.FlowBytes = 0
	}

	if fs.Algorithm == AlgoTCP {
		src := tcp.NewSrc(n.Sim, 0, name, cfg)
		sink := tcp.NewSink(n.Sim)
		n.wire(f, routes[0], src, sink)
		src.Start(start)
		f.Srcs, f.Sinks = []*tcp.Src{src}, []*tcp.Sink{sink}
	} else {
		conn := mptcp.New(n.Sim, name, core.New(fs.Algorithm), cfg)
		conn.SetKeepSlowStart(fs.KeepSlowStart)
		for _, r := range routes {
			sf := conn.AddSubflow(0)
			n.wire(f, r, sf.Src, sf.Sink)
			f.Srcs = append(f.Srcs, sf.Src)
			f.Sinks = append(f.Sinks, sf.Sink)
		}
		if fs.Scheduler != "" {
			sched, err := mptcp.NewScheduler(fs.Scheduler)
			if err != nil {
				panic(err) // a compiled spec cannot get here: Validate vetted the name
			}
			f.Stream = mptcp.NewStreamSched(conn, fs.FlowBytes, fs.ChunkBytes, sched)
			f.Stream.Start(start)
		} else {
			conn.Start(start)
		}
		f.Conn = conn
	}
	if fs.StopSec > 0 {
		n.Sim.Schedule(sim.Seconds(fs.StopSec), (*flowStop)(f))
	}
	n.Flows = append(n.Flows, f)
	return f
}

// flowStop is a flow's FlowSpec.StopSec event: it pauses every sender
// (sim.Handler).
type flowStop Flow

func (f *flowStop) RunEvent(sim.Time) {
	for _, s := range f.Srcs {
		s.Pause()
	}
}

// OnComplete has fn called once with the transfer's duration when a finite
// plain-TCP flow is fully acknowledged, or a scheduled stream fully
// delivered in order.
func (f *Flow) OnComplete(fn func(took sim.Time)) {
	if f.Stream != nil {
		f.Stream.OnComplete = func(st *mptcp.Stream) { fn(st.CompletionTime()) }
		return
	}
	f.Srcs[0].OnComplete = func(s *tcp.Src) { fn(s.CompletionTime()) }
}
