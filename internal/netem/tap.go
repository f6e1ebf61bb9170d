package netem

import "mptcpsim/internal/sim"

// Tap is a transparent pass-through counter: it records every packet that
// crosses it and forwards it unchanged to the next hop of its route. Taps
// schedule no events and consume no randomness, so inserting one into a
// route does not perturb the simulation — the scenario runtime uses them to
// count terminal deliveries for its packet-conservation invariant.
type Tap struct {
	// Pkts and Bytes accumulate across every forwarded packet.
	Pkts  int64
	Bytes int64
}

// Recv counts the packet and forwards it along its route.
func (t *Tap) Recv(p *Packet) {
	t.Pkts++
	t.Bytes += int64(p.Size)
	p.SendOn()
}

// RandomLoss drops each crossing packet independently with a fixed
// probability, modeling non-congestive (e.g. wireless) loss. Survivors are
// forwarded unchanged; victims are counted and freed, so pool accounting
// and the conservation invariant stay exact. Draws come from the owning
// simulation's RNG, keeping runs reproducible per seed.
type RandomLoss struct {
	sim  *sim.Sim
	prob float64

	// Dropped and Passed count the node's verdicts.
	Dropped int64
	Passed  int64
}

// NewRandomLoss builds a loss element with drop probability p in [0, 1].
// p = 1 black-holes the element (useful as a transient fault); p = 0 makes
// it fully transparent and draws no randomness.
func NewRandomLoss(s *sim.Sim, p float64) *RandomLoss {
	if !(0 <= p && p <= 1) {
		panic("netem: loss probability must be in [0, 1]")
	}
	return &RandomLoss{sim: s, prob: p}
}

// SetProb retargets the drop probability mid-run; packets that already
// passed the element are unaffected. A probability of 0 consumes no
// randomness, so an idle loss element never perturbs the RNG stream.
//
//simlint:hot
func (l *RandomLoss) SetProb(p float64) {
	if !(0 <= p && p <= 1) {
		panic("netem: loss probability must be in [0, 1]")
	}
	l.prob = p
}

// Recv applies the Bernoulli drop test and forwards survivors.
func (l *RandomLoss) Recv(p *Packet) {
	if l.prob > 0 && l.sim.Rand().Float64() < l.prob {
		l.Dropped++
		p.Free()
		return
	}
	l.Passed++
	p.SendOn()
}
