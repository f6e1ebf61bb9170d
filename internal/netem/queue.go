package netem

import (
	"fmt"

	"mptcpsim/internal/sim"
)

// Counters accumulate per-queue statistics. Snapshot and subtract them to
// restrict measurements to a window (the harness excludes warm-up).
type Counters struct {
	ArrivedPkts  int64
	ArrivedBytes int64
	DroppedPkts  int64
	DroppedBytes int64
	SentPkts     int64 // completed service
	SentBytes    int64
}

// Sub returns c - o, for windowed measurement.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		ArrivedPkts:  c.ArrivedPkts - o.ArrivedPkts,
		ArrivedBytes: c.ArrivedBytes - o.ArrivedBytes,
		DroppedPkts:  c.DroppedPkts - o.DroppedPkts,
		DroppedBytes: c.DroppedBytes - o.DroppedBytes,
		SentPkts:     c.SentPkts - o.SentPkts,
		SentBytes:    c.SentBytes - o.SentBytes,
	}
}

// LossProb estimates the drop probability seen by arrivals in this window.
func (c Counters) LossProb() float64 {
	if c.ArrivedPkts == 0 {
		return 0
	}
	return float64(c.DroppedPkts) / float64(c.ArrivedPkts)
}

// Queue is a rate-limited buffer. Implementations differ only in their
// accept/drop policy; service is FIFO at the configured line rate.
type Queue interface {
	Node
	Name() string
	// SetRateBps retargets the line rate mid-run (fault injection); see
	// queueCore.SetRateBps for the exact semantics.
	SetRateBps(int64)
	Stats() Counters
	// Len reports the instantaneous backlog in packets, including the one
	// in service.
	Len() int
}

// queueCore implements FIFO service at a fixed rate. Concrete queues embed
// it and implement only the arrival decision. The backlog is a list linked
// through the packets themselves and service completion runs through a
// single reused kernel timer (queueCore implements sim.Handler), so a queue
// allocates nothing after its construction.
type queueCore struct {
	sim     *sim.Sim
	rateBps int64 // line rate, bits per second
	name    string
	buf     pktList // FIFO; the head is in service
	stats   Counters
	svc     sim.Timer // service-completion timer, re-armed per packet
	// onEmpty, if set, runs when the buffer drains (RED idle tracking).
	onEmpty func()
}

func (q *queueCore) init(s *sim.Sim, rateBps int64, name string) {
	if rateBps <= 0 {
		panic(fmt.Sprintf("netem: queue %q needs positive rate", name))
	}
	q.sim = s
	q.rateBps = rateBps
	q.name = name
}

func (q *queueCore) Name() string { return q.name }

// SetRateBps retargets the line rate mid-run. The packet currently in
// service keeps the completion time armed when its transmission began (its
// bits are already pacing out at the old rate); every later packet
// serializes at the new rate as it enters service, so FIFO order, Len, and
// the Sent counters stay exact through the transition. Buffer limits and
// RED thresholds are physical configuration and deliberately do not scale
// with the new rate.
//
//simlint:hot
func (q *queueCore) SetRateBps(r int64) {
	if r <= 0 {
		panic(fmt.Sprintf("netem: queue %q needs positive rate", q.name))
	}
	q.rateBps = r
}
func (q *queueCore) Stats() Counters { return q.stats }
func (q *queueCore) Len() int        { return q.buf.n }

// txTime is the serialization delay for size bytes at the line rate.
func (q *queueCore) txTime(size int) sim.Time {
	return sim.TxTime(int64(size), q.rateBps)
}

func (q *queueCore) arrive(p *Packet) {
	q.stats.ArrivedPkts++
	q.stats.ArrivedBytes += int64(p.Size)
}

func (q *queueCore) drop(p *Packet) {
	q.stats.DroppedPkts++
	q.stats.DroppedBytes += int64(p.Size)
	p.Free()
}

// enqueue admits the packet and starts service if the line was idle.
func (q *queueCore) enqueue(p *Packet) {
	q.buf.push(p)
	if q.buf.n == 1 {
		q.startService()
	}
}

func (q *queueCore) startService() {
	at := q.sim.Now() + q.txTime(int(q.buf.head.Size))
	if q.svc.Valid() {
		q.sim.Reschedule(q.svc, at)
	} else {
		q.svc = q.sim.ScheduleTimer(at, q, sim.KindQueue)
	}
}

// RunEvent completes the in-service packet (sim.Handler).
func (q *queueCore) RunEvent(now sim.Time) { q.finishService() }

func (q *queueCore) finishService() {
	p := q.buf.pop()
	q.stats.SentPkts++
	q.stats.SentBytes += int64(p.Size)
	p.SendOn()
	if q.buf.n > 0 {
		q.startService()
	} else if q.onEmpty != nil {
		q.onEmpty()
	}
}

// DropTail is a classic FIFO queue with a fixed packet-count limit, as used
// by htsim for the FatTree experiments (§VI-B).
type DropTail struct {
	queueCore
	limitPkts int
}

// NewDropTail builds a drop-tail queue holding at most limitPkts packets.
func NewDropTail(s *sim.Sim, rateBps int64, limitPkts int, name string) *DropTail {
	if limitPkts < 1 {
		panic("netem: drop-tail limit must be >= 1")
	}
	q := &DropTail{limitPkts: limitPkts}
	q.init(s, rateBps, name)
	return q
}

// Recv admits the packet unless the buffer is full.
func (q *DropTail) Recv(p *Packet) {
	q.arrive(p)
	if q.buf.n >= q.limitPkts {
		q.drop(p)
		return
	}
	q.enqueue(p)
}

// REDConfig holds the Random Early Detection parameters. The paper (§III)
// configures, for a 10 Mb/s link: no drops below minth=25 packets, drop
// probability rising linearly to 0.1 at maxth=50, then linearly to 1 at
// 2·maxth ("gentle" RED), with a hard 300-packet buffer; thresholds scale
// proportionally with link capacity.
type REDConfig struct {
	MinTh     float64 // packets
	MaxTh     float64 // packets
	PMax      float64 // drop probability at MaxTh
	LimitPkts int     // physical buffer (tail-drop beyond this)
	Weight    float64 // EWMA weight for the average queue size
}

// PaperRED returns the paper's RED parameters for a link of the given rate,
// scaled proportionally from the 10 Mb/s reference configuration.
func PaperRED(rateBps int64) REDConfig {
	scale := float64(rateBps) / 10e6
	if scale <= 0 {
		panic("netem: non-positive RED rate")
	}
	lim := int(300*scale + 0.5)
	if lim < 1 {
		lim = 1
	}
	return REDConfig{
		MinTh:     25 * scale,
		MaxTh:     50 * scale,
		PMax:      0.1,
		LimitPkts: lim,
		Weight:    0.002,
	}
}

// RED implements gentle RED with the count-since-last-drop spreading of the
// original Floyd/Jacobson design, operating on an EWMA of the backlog in
// packets.
type RED struct {
	queueCore
	cfg   REDConfig
	avg   float64 // EWMA of queue length in packets
	count int     // packets since last drop while the curve is active
	// emptyAt tracks since when the buffer has been empty; arrivals decay
	// the average over that span (then advance it, so consecutive arrivals
	// on an empty queue each decay only their own increment).
	emptyAt sim.Time
	meanPkt sim.Time // typical transmission time, for idle decay
}

// NewRED builds a RED queue with the given configuration.
func NewRED(s *sim.Sim, rateBps int64, cfg REDConfig, name string) *RED {
	if cfg.LimitPkts < 1 || cfg.MinTh <= 0 || cfg.MaxTh <= cfg.MinTh {
		panic(fmt.Sprintf("netem: bad RED config %+v", cfg))
	}
	if cfg.Weight <= 0 || cfg.Weight > 1 {
		panic("netem: RED weight out of range")
	}
	q := &RED{cfg: cfg, count: -1}
	q.init(s, rateBps, name)
	q.meanPkt = q.txTime(MSS)
	q.onEmpty = func() { q.emptyAt = q.sim.Now() }
	return q
}

// dropProb maps the average queue size to a drop probability per the gentle
// RED curve.
func (q *RED) dropProb() float64 {
	cfg := &q.cfg
	switch {
	case q.avg < cfg.MinTh:
		return 0
	case q.avg < cfg.MaxTh:
		return cfg.PMax * (q.avg - cfg.MinTh) / (cfg.MaxTh - cfg.MinTh)
	case q.avg < 2*cfg.MaxTh:
		return cfg.PMax + (1-cfg.PMax)*(q.avg-cfg.MaxTh)/cfg.MaxTh
	default:
		return 1
	}
}

// Recv applies the RED admission test and enqueues survivors.
func (q *RED) Recv(p *Packet) {
	q.arrive(p)
	// Update the average. While the buffer sits empty the average decays:
	// emulate the standard m = idle/meanPkt virtual departures, then move
	// the empty-period marker so repeated arrivals on an empty queue (for
	// example RTO probes that keep getting dropped) don't re-decay the same
	// span — and, crucially, do keep decaying across dropped arrivals.
	if q.buf.n == 0 {
		m := (q.sim.Now() - q.emptyAt).Nanos() / q.meanPkt.Nanos()
		switch {
		case m > 5000:
			q.avg = 0
		case m > 0:
			for i := 0; i < int(m); i++ {
				q.avg *= 1 - q.cfg.Weight
			}
		}
		q.emptyAt = q.sim.Now()
	}
	q.avg = (1-q.cfg.Weight)*q.avg + q.cfg.Weight*float64(q.buf.n)

	if q.buf.n >= q.cfg.LimitPkts {
		q.drop(p)
		q.count = 0
		return
	}
	pb := q.dropProb()
	if pb > 0 {
		q.count++
		// Spread drops uniformly between marks: pa = pb / (1 - count*pb).
		// The spreading device is only meaningful for small pb (the linear
		// region it was designed for); with pb beyond ~1/4 it degenerates
		// to dropping every packet, so fall back to Bernoulli there.
		pa := pb
		if pb <= 0.25 {
			pa = 1.0
			if d := 1 - float64(q.count)*pb; d > 0 {
				pa = pb / d
			}
		}
		if pa >= 1 || q.sim.Rand().Float64() < pa {
			q.drop(p)
			q.count = 0
			return
		}
	} else {
		q.count = -1
	}
	q.enqueue(p)
}
