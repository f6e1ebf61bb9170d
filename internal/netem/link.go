package netem

import "mptcpsim/internal/sim"

// QueueKind selects the buffering discipline for a link.
type QueueKind int

const (
	// QueueRED uses the paper's testbed RED configuration (§III).
	QueueRED QueueKind = iota
	// QueueDropTail uses a fixed-size FIFO (htsim's data-center default).
	QueueDropTail
)

// DefaultDropTailPkts is the drop-tail buffer size selected when
// LinkConfig.DropTailPkts is zero — htsim's 100-packet default.
const DefaultDropTailPkts = 100

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	RateBps int64
	Delay   sim.Time
	Kind    QueueKind
	// DropTailPkts is the buffer size when Kind is QueueDropTail; a zero
	// value selects DefaultDropTailPkts.
	DropTailPkts int
	// REDCfg overrides the paper-derived RED parameters when non-nil.
	REDCfg *REDConfig
}

// Link is a unidirectional link: a rate-limiting queue followed by a
// propagation-delay pipe. Packets Recv'd by the link pass through both.
type Link struct {
	Q Queue
	P *Pipe
}

// NewLink builds a link from cfg. The name is used for traces and stats.
func NewLink(s *sim.Sim, cfg LinkConfig, name string) *Link {
	return &Link{Q: NewQueue(s, cfg, name+"/q"), P: NewPipe(s, cfg.Delay, name+"/p")}
}

// NewQueue builds the queue of a link described by cfg, without its pipe:
// cfg.Delay is not read. A network that shares one pipe among every hop of
// the same delay (scenario.Net) builds its queues here.
func NewQueue(s *sim.Sim, cfg LinkConfig, name string) Queue {
	switch cfg.Kind {
	case QueueDropTail:
		n := cfg.DropTailPkts
		if n == 0 {
			n = DefaultDropTailPkts
		}
		return NewDropTail(s, cfg.RateBps, n, name)
	case QueueRED:
		red := PaperRED(cfg.RateBps)
		if cfg.REDCfg != nil {
			red = *cfg.REDCfg
		}
		return NewRED(s, cfg.RateBps, red, name)
	default:
		panic("netem: unknown queue kind")
	}
}

// Recv lets a Link act as a single Node (rarely needed; routes normally
// include Q and P separately so the pipe is addressable).
func (l *Link) Recv(p *Packet) { l.Q.Recv(p) }

// Collector is a terminal Node that counts delivered traffic, for tests and
// the benchmark's rigs. It keeps no packet: each is freed on delivery, so
// pooling holds however long the run.
type Collector struct {
	// Count and Bytes accumulate across all deliveries.
	Count int64
	Bytes int64
	// OnRecv, if set, observes each delivery before the packet is freed. It
	// must not keep a reference to the packet.
	OnRecv func(*Packet)
}

// Recv records the packet and frees it.
func (c *Collector) Recv(p *Packet) {
	c.Count++
	c.Bytes += int64(p.Size)
	if c.OnRecv != nil {
		c.OnRecv(p)
	}
	p.Free()
}
