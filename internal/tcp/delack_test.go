package tcp

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// delackRig wires a flow whose sink uses delayed ACKs when delayed is set
// and counts ACKs on the reverse path. cfg lets tests shape the sender (for
// example a window cap to keep the run loss-free, isolating the pairing
// behavior from the immediate ACKs that loss recovery correctly generates).
func delackRig(t *testing.T, delayed bool, cfg Config) (*sim.Sim, *Src, *Sink, *int) {
	t.Helper()
	s := sim.New(1)
	fwd := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
	src := NewSrc(s, 0, "da", cfg)
	sink := NewSink(s)
	if delayed {
		sink.EnableDelayedAck()
	}
	acks := 0
	counter := nodeFunc(func(p *netem.Packet) {
		if p.Ack {
			acks++
		}
		p.SendOn()
	})
	src.SetRoute(netem.NewRoute(fwd.Q, fwd.P, sink))
	sink.SetRoute(netem.NewRoute(counter, rev.Q, rev.P, src))
	return s, src, sink, &acks
}

func TestDelayedAckHalvesAckCount(t *testing.T) {
	s, src, sink, acks := delackRig(t, true, Config{MaxCwndPkts: 12})
	src.Start(0)
	s.RunUntil(10 * sim.Second)
	segments := sink.GoodputBytes() / 1500
	ratio := float64(*acks) / float64(segments)
	// Roughly one ACK per two segments (plus timer-driven odd ones).
	if ratio > 0.7 {
		t.Fatalf("ACK ratio %.2f, want ≈0.5 with delayed ACKs", ratio)
	}
	if ratio < 0.4 {
		t.Fatalf("ACK ratio %.2f suspiciously low", ratio)
	}
}

func TestDelayedAckStillFillsLink(t *testing.T) {
	s, src, sink, _ := delackRig(t, true, Config{})
	src.Start(0)
	s.RunUntil(20 * sim.Second)
	mbps := float64(sink.GoodputBytes()) * 8 / 20e6
	if mbps < 7.5 {
		t.Fatalf("delayed-ACK flow at %.2f Mb/s, want near line rate", mbps)
	}
}

func TestDelayedAckTimerBoundsStall(t *testing.T) {
	// A single segment (cwnd exhausted flow of exactly 1 MSS) must still be
	// ACKed, held back by exactly the 40 ms delayed-ACK timeout.
	took := func(delayed bool) sim.Time {
		s, src, _, acks := delackRig(t, delayed, Config{FlowBytes: 1500})
		src.Start(0)
		s.RunUntil(5 * sim.Second)
		if *acks == 0 {
			t.Fatal("lone segment never acknowledged")
		}
		if !src.Done() {
			t.Fatal("1-segment flow incomplete")
		}
		return src.CompletionTime()
	}
	if held := took(true) - took(false); held != 40*sim.Millisecond {
		t.Fatalf("lone segment's ACK held back %v, want 40ms", held)
	}
}

func TestDelayedAckDisabledByDefault(t *testing.T) {
	s, src, sink, acks := delackRig(t, false, Config{})
	src.Start(0)
	s.RunUntil(5 * sim.Second)
	segments := sink.GoodputBytes() / 1500
	if int64(*acks) < segments {
		t.Fatalf("per-segment ACKs expected: %d acks for %d segments", *acks, segments)
	}
}

func TestDelayedAckLossRecoveryImmediateDupAcks(t *testing.T) {
	// Out-of-order data must be ACKed immediately even with delayed ACKs on,
	// so fast retransmit still works; the flow must recover from a loss
	// without waiting for an RTO.
	s := sim.New(2)
	fwd := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "f")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 10_000_000, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 1000}, "r")
	src := NewSrc(s, 0, "da", Config{})
	sink := NewSink(s)
	sink.EnableDelayedAck()
	dropped := false
	shim := nodeFunc(func(p *netem.Packet) {
		if !dropped && !p.Ack && p.Seq == 60000 && !p.Retx {
			dropped = true
			return
		}
		p.SendOn()
	})
	src.SetRoute(netem.NewRoute(shim, fwd.Q, fwd.P, sink))
	sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
	src.Start(0)
	s.RunUntil(10 * sim.Second)
	st := src.Stats()
	if !dropped {
		t.Fatal("loss not injected")
	}
	if st.FastRecover < 1 {
		t.Fatal("no fast recovery with delayed ACKs")
	}
	if st.Timeouts != 0 {
		t.Fatalf("RTO fired (%d): dupACKs were delayed?", st.Timeouts)
	}
}
