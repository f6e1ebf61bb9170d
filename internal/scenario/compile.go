package scenario

import (
	"fmt"
	"slices"

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
// runtime measures. Compile builds one from a Spec, through addLink and
// addFlow; its set of flows is fixed once Run starts.
type Net struct {
	// Spec is what Compile built the network from.
	Spec *Spec
	Sim  *sim.Sim

	// Warmup and End bound the measured window as exact event times;
	// reported rates divide by Spec.DurationSec, since a trip through
	// sim.Time truncates.
	Warmup, End sim.Time

	Links []*CompiledLink
	// Flows lists every flow in creation order; Groups indexes them by
	// Spec.Flows entry.
	Flows  []*Flow
	Groups [][]*Flow

	// Rev is the return link shared by every path with no PathSpec.Rev;
	// nil when every path has one.
	Rev *netem.Link
	// pipes holds the network's one pipe per distinct constant delay, which
	// carries every hop of that delay: link, reverse link and access hops
	// alike. private holds the pipes of links whose delay a timeline
	// setpoint retargets, because SetDelay is only for a pipe that carries
	// one link. The two together are every pipe, for in-flight accounting.
	pipes, private []*netem.Pipe
	// pathFlows indexes, per Spec.Paths entry, every sender routed over
	// that path, for its flaps.
	pathFlows [][]pathRef
	// trace is the sampler compiled from Spec.Trace, nil without one;
	// running is set once Run starts, after which no flow may be added and
	// Run refuses to start again.
	trace   *tracer
	running bool
}

// Compile validates the spec and builds its network. Element creation
// order is part of the contract — links first, then the shared reverse
// link if a path uses it, then flows in listing order, each replica
// drawing its start jitter as it is created — because it fixes how a spec
// consumes its seed's random stream, and the experiment goldens are
// byte-exact functions of that stream.
func Compile(sp *Spec) (*Net, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	warmup := sim.Seconds(sp.WarmupSec)
	n := &Net{
		Spec: sp, Sim: sim.New(sp.Seed),
		Warmup: warmup, End: warmup + sim.Seconds(sp.DurationSec),
		pathFlows: make([][]pathRef, len(sp.Paths)),
	}
	s := n.Sim

	// The timeline driver is armed first — before any flow-start event — so
	// a t=0 setpoint is in effect for the very first transmission. Arming
	// draws no randomness and adds no events to a timeline-free spec, so
	// existing scenarios stay byte-identical.
	if len(sp.Timeline) > 0 {
		s.Schedule(sim.Seconds(sp.Timeline[0].AtSec), &timelineDriver{net: n})
	}

	for _, ls := range sp.Links {
		n.addLink(ls)
	}
	if slices.ContainsFunc(sp.Paths, func(p PathSpec) bool { return p.Rev == nil }) {
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
	}

	n.Groups = make([][]*Flow, len(sp.Flows))
	for fi := range sp.Flows {
		fs := &sp.Flows[fi]
		name := fs.Name
		if name == "" {
			name = fmt.Sprintf("flow%d", fi)
		}
		for r := 0; r < fs.count(); r++ {
			var f *Flow
			if fs.Serial && r > 0 {
				// Wired now, started by its predecessor's completion.
				f = n.newFlow(fmt.Sprintf("%s-%d", name, r), fs)
				n.startOnComplete(n.Groups[fi][r-1], f)
			} else {
				at := sim.Seconds(fs.StartSec)
				if fs.StartJitter {
					at += sim.RandBelow(s.Rand(), startSpread)
				}
				f = n.addFlow(fmt.Sprintf("%s-%d", name, r), fs, at)
			}
			n.Groups[fi] = append(n.Groups[fi], f)
			for i, pi := range fs.Paths {
				n.pathFlows[pi] = append(n.pathFlows[pi], pathRef{flow: f, sub: i})
			}
		}
	}
	// Probe control is armed once every flow has started, group by group.
	for fi := range sp.Flows {
		if sp.Flows[fi].ProbeControl {
			for _, f := range n.Groups[fi] {
				f.Conn.EnableProbeControl()
			}
		}
	}
	if sp.Trace != nil {
		n.trace = newTracer(n, sp)
	}
	return n, nil
}

// addLink builds one unidirectional link — a random-loss element when
// LossPct is set or a timeline setpoint retargets the link's loss, the
// queue, the propagation pipe — and returns it; its index in Links is what a
// PathSpec names. Links are added before Run.
func (n *Net) addLink(ls LinkSpec) *CompiledLink {
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

// wire builds both directions of one subflow between src and sink over
// path p: its access pipe (none at zero delay), its links, and back over
// its Rev links or the shared return link. ACKs pass the flow's tap last,
// whichever way they return.
func (n *Net) wire(f *Flow, p *PathSpec, src *tcp.Src, sink *tcp.Sink) {
	var trim netem.Node
	if p.DelayMs > 0 {
		trim = n.pipe(sim.Millis(p.DelayMs), false)
	}
	src.SetRoute(n.route(trim, p.Links, sink))
	if p.Rev != nil {
		sink.SetRoute(n.route(nil, p.Rev, f.AckTap, src))
		return
	}
	sink.SetRoute(netem.NewRoute(n.Rev.Q, n.Rev.P, f.AckTap, src))
}

// addFlow wires one flow of fs and schedules its start at the absolute time
// start, before Run. fs supplies the subflows' paths, an index each into
// Spec.Paths, and the transport — Algorithm, FlowBytes, Scheduler,
// ChunkBytes, KeepSlowStart, MaxCwndPkts, NoIncreaseCap, DelayedAck,
// StopSec, with the meanings and the combinations Validate documents — and
// is not retained; its other placement fields (Count, StartSec,
// StartJitter, Serial) and ProbeControl are Compile's and are not read.
//
// Set-up allocates by design, once per flow and never per packet.
//
//simlint:cold
func (n *Net) addFlow(name string, fs *FlowSpec, start sim.Time) *Flow {
	f := n.newFlow(name, fs)
	f.start(start)
	if fs.StopSec > 0 {
		n.Sim.Schedule(sim.Seconds(fs.StopSec), (*flowStop)(f))
	}
	return f
}

// newFlow wires one flow without starting it (see addFlow).
//
//simlint:cold
func (n *Net) newFlow(name string, fs *FlowSpec) *Flow {
	if n.running {
		panic(fmt.Sprintf("scenario %q: flow %s added after Run started", n.Spec.Name, name))
	}
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
		n.wire(f, &n.Spec.Paths[fs.Paths[0]], src, sink)
		f.Srcs, f.Sinks = []*tcp.Src{src}, []*tcp.Sink{sink}
	} else {
		conn := mptcp.New(n.Sim, name, core.New(fs.Algorithm), cfg)
		conn.SetKeepSlowStart(fs.KeepSlowStart)
		for _, pi := range fs.Paths {
			sf := conn.AddSubflow(0)
			n.wire(f, &n.Spec.Paths[pi], sf.Src, sf.Sink)
			f.Srcs = append(f.Srcs, sf.Src)
			f.Sinks = append(f.Sinks, sf.Sink)
		}
		if fs.Scheduler != "" {
			sched, err := mptcp.NewScheduler(fs.Scheduler)
			if err != nil {
				panic(err) // a compiled spec cannot get here: Validate vetted the name
			}
			f.Stream = mptcp.NewStreamSched(conn, fs.FlowBytes, fs.ChunkBytes, sched)
		}
		f.Conn = conn
	}
	if fs.DelayedAck {
		for _, k := range f.Sinks {
			k.EnableDelayedAck()
		}
	}
	n.Flows = append(n.Flows, f)
	return f
}

// start schedules the flow's senders to start at the absolute time at.
func (f *Flow) start(at sim.Time) {
	switch {
	case f.Stream != nil:
		f.Stream.Start(at)
	case f.Conn != nil:
		f.Conn.Start(at)
	default:
		f.Srcs[0].Start(at)
	}
}

// startOnComplete has next start the moment f's finite plain-TCP transfer
// is fully acknowledged, or its scheduled stream fully delivered in order.
//
//simlint:cold
func (n *Net) startOnComplete(f, next *Flow) {
	s := n.Sim
	if f.Stream != nil {
		f.Stream.OnComplete = func(*mptcp.Stream) { next.start(s.Now()) }
		return
	}
	f.Srcs[0].OnComplete = func(*tcp.Src) { next.start(s.Now()) }
}

// flowStop is a flow's FlowSpec.StopSec event: it pauses every sender
// (sim.Handler).
type flowStop Flow

func (f *flowStop) RunEvent(sim.Time) {
	for _, s := range f.Srcs {
		s.Pause()
	}
}
