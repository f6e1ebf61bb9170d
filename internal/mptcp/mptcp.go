// Package mptcp assembles TCP subflows into a multipath connection whose
// congestion avoidance is coupled by a core.Controller (OLIA, LIA, ...).
//
// Following the paper (and htsim's MultipathTcpSrc), each subflow is a full
// TCP sender/receiver pair with its own sequence space, loss recovery, and
// RTT estimation; only the congestion-avoidance window increases (and, for
// the ε=0 baseline, the decrease) are coupled. The connection's goodput is
// the sum of the subflows' in-order deliveries — the quantity all of the
// paper's throughput plots report.
package mptcp

import (
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// Conn is a multipath TCP connection.
type Conn struct {
	sim  *sim.Sim
	name string
	ctrl core.Controller
	cfg  tcp.Config
	subs []*Subflow
	// keepSlowStart preserves normal TCP slow start on subflows instead of
	// the Linux-implementation ssthresh=1 setting of §IV-B. htsim (the
	// paper's data-center substrate) behaves this way.
	keepSlowStart bool
	// probeStates is non-nil once EnableProbeControl has run.
	probeStates []probeState
	// stream is the finite byte stream carried by this connection, if any;
	// SetPathUp notifies it so stranded spans are reinjected.
	stream *Stream
}

// SetKeepSlowStart selects htsim-style subflow startup (normal slow start)
// instead of the paper's Linux setting (ssthresh = 1 MSS, §IV-B). Call
// before Start.
func (c *Conn) SetKeepSlowStart(v bool) { c.keepSlowStart = v }

// Subflow is one TCP flow of a multipath connection.
type Subflow struct {
	Src  *tcp.Src
	Sink *tcp.Sink
	conn *Conn
	idx  int
}

// Index reports this subflow's position within its connection.
func (sf *Subflow) Index() int { return sf.idx }

// New creates an empty connection using the given controller. cfg applies to
// every subflow; multipath adjustments (§IV-B) are made automatically at
// Start when the connection has two or more subflows.
func New(s *sim.Sim, name string, ctrl core.Controller, cfg tcp.Config) *Conn {
	if ctrl == nil {
		panic("mptcp: nil controller")
	}
	return &Conn{sim: s, name: name, ctrl: ctrl, cfg: cfg}
}

// Name identifies the connection in traces.
func (c *Conn) Name() string { return c.name }

// Controller exposes the coupling algorithm (for traces, e.g. OLIA's α).
func (c *Conn) Controller() core.Controller { return c.ctrl }

// Subflows lists the connection's subflows.
func (c *Conn) Subflows() []*Subflow { return c.subs }

// AddSubflow creates subflow endpoints. Wire them afterwards with
// SetRoutes: the forward route must end at sf.Sink, the reverse at sf.Src.
// Its argument is ignored: a subflow has no flow ID. The benchmark's rigs
// (bench/rigs.go) still pass one.
func (c *Conn) AddSubflow(_ int) *Subflow {
	idx := len(c.subs)
	src := tcp.NewSrc(c.sim, 0, fmt.Sprintf("%s/sub%d", c.name, idx), c.cfg)
	sf := &Subflow{
		Src:  src,
		Sink: tcp.NewSink(c.sim),
		conn: c,
		idx:  idx,
	}
	c.subs = append(c.subs, sf)
	return sf
}

// SetRoutes wires the subflow's forward (data) and reverse (ACK) routes.
// The caller must have appended sf.Sink to fwd and sf.Src to rev; this is
// validated at Start.
func (sf *Subflow) SetRoutes(fwd, rev *netem.Route) {
	sf.Src.SetRoute(fwd)
	sf.Sink.SetRoute(rev)
}

// hook adapts one subflow's congestion events to the shared controller.
type hook struct {
	conn *Conn
	idx  int
}

func (h hook) OnAck(n int, inCA bool) float64 {
	return h.conn.ctrl.Acked(h.conn, h.idx, n, inCA)
}

func (h hook) OnLoss() { h.conn.ctrl.Lost(h.conn, h.idx) }

// reducerHook additionally forwards the multiplicative-decrease override for
// controllers that implement core-side window reduction (ε=0 baseline).
type reducerHook struct {
	hook
	r interface{ ReduceTo(float64) float64 }
}

func (h reducerHook) ReduceTo(cwndBytes float64) float64 { return h.r.ReduceTo(cwndBytes) }

// wire installs subflow i's controller hook and, for multipath connections
// not keeping slow start, the paper's §IV-B settings.
func (c *Conn) wire(i int) {
	sf := c.subs[i]
	h := hook{conn: c, idx: i}
	if r, ok := c.ctrl.(interface{ ReduceTo(float64) float64 }); ok {
		sf.Src.SetHook(reducerHook{h, r})
	} else {
		sf.Src.SetHook(h)
	}
	if len(c.subs) > 1 && !c.keepSlowStart {
		sf.Src.ConfigureMultipath()
	}
}

// Start wires hooks and launches every subflow at the given time. With two
// or more subflows the paper's multipath settings are applied first.
func (c *Conn) Start(at sim.Time) {
	if len(c.subs) == 0 {
		panic(fmt.Sprintf("mptcp: %s has no subflows", c.name))
	}
	for i, sf := range c.subs {
		c.wire(i)
		sf.Src.Start(at)
	}
}

// SetPathUp flaps subflow i administratively up or down (fault injection).
// Down freezes the subflow's sender — no transmissions, no RTO backoff, no
// loss notifications into the coupled controller — while packets already in
// flight drain normally; up resumes transmission, with data lost during the
// outage recovered one timeout later. The other subflows are unaffected, so
// a flap degrades the connection gracefully instead of stalling it.
//
//simlint:hot
func (c *Conn) SetPathUp(i int, up bool) {
	sf := c.subs[i]
	if up {
		sf.Src.Unfreeze()
	} else {
		sf.Src.Freeze()
	}
	if c.stream != nil {
		c.stream.pathChanged(i, up)
	}
}

// PathUp reports whether subflow i is administratively up.
func (c *Conn) PathUp(i int) bool { return !c.subs[i].Src.Frozen() }

// GoodputBytes sums in-order bytes delivered across subflows.
func (c *Conn) GoodputBytes() int64 {
	var total int64
	for _, sf := range c.subs {
		total += sf.Sink.GoodputBytes()
	}
	return total
}

// NumFlows implements core.ConnView.
func (c *Conn) NumFlows() int { return len(c.subs) }

// CwndPkts implements core.ConnView.
func (c *Conn) CwndPkts(i int) float64 { return c.subs[i].Src.CwndPkts() }

// SRTT implements core.ConnView.
func (c *Conn) SRTT(i int) float64 { return c.subs[i].Src.SRTT() }

// MSS implements core.ConnView.
func (c *Conn) MSS() int { return netem.MSS }

// InFlightBytes implements SchedView: subflow i's unacknowledged bytes.
func (c *Conn) InFlightBytes(i int) int64 { return c.subs[i].Src.InFlightBytes() }
