package tcp

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestFreezeStopsTransmissionAndRTO: an administratively frozen sender must
// go completely quiet — no new segments, no recovery retransmissions, and
// crucially no RTO expirations accumulating backoff — while ACKs for data
// already in flight still drain.
func TestFreezeStopsTransmissionAndRTO(t *testing.T) {
	d := newDumbbell(1, 10_000_000, 40*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Start(0)
	d.s.At(2*sim.Second, func() { d.src.Freeze() })
	d.s.RunUntil(2*sim.Second + sim.Millisecond)
	if !d.src.Frozen() {
		t.Fatal("not frozen")
	}
	sent, timeouts := d.src.Stats().SentPkts, d.src.Stats().Timeouts

	// Several MinRTO periods of outage: nothing may be sent, no timeouts.
	d.s.RunUntil(7 * sim.Second)
	if got := d.src.Stats().SentPkts; got != sent {
		t.Fatalf("frozen sender transmitted: %d -> %d packets", sent, got)
	}
	if got := d.src.Stats().Timeouts; got != timeouts {
		t.Fatalf("frozen sender accumulated timeouts: %d -> %d", timeouts, got)
	}
	acked := d.src.AckedBytes()

	d.s.At(7*sim.Second, func() { d.src.Unfreeze() })
	d.s.RunUntil(12 * sim.Second)
	if d.src.Frozen() {
		t.Fatal("still frozen")
	}
	if d.src.AckedBytes() <= acked {
		t.Fatalf("no progress after unfreeze: acked stuck at %d", acked)
	}
}

// TestFreezeBeforeStart: a sender frozen before its start time must stay
// quiet when the start event fires and transmit normally once unfrozen.
func TestFreezeBeforeStart(t *testing.T) {
	d := newDumbbell(1, 10_000_000, 10*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Freeze()
	d.src.Start(100 * sim.Millisecond)
	d.s.RunUntil(sim.Second)
	if got := d.src.Stats().SentPkts; got != 0 {
		t.Fatalf("frozen sender transmitted %d packets before unfreeze", got)
	}
	d.s.At(sim.Second, func() { d.src.Unfreeze() })
	d.s.RunUntil(2 * sim.Second)
	if d.src.AckedBytes() == 0 {
		t.Fatal("no progress after unfreeze")
	}
}

// TestRepeatedFlapsRecover: a sender flapped down/up every second for ten
// cycles must neither stall nor spiral into RTO backoff — each outage costs
// at most the outage itself plus one retransmission timeout.
func TestRepeatedFlapsRecover(t *testing.T) {
	d := newDumbbell(2, 10_000_000, 20*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Start(0)
	for c := 0; c < 10; c++ {
		at := sim.Time(c) * sim.Second
		d.s.At(at+700*sim.Millisecond, func() { d.src.Freeze() })
		d.s.At(at+sim.Second, func() { d.src.Unfreeze() })
	}
	d.s.RunUntil(12 * sim.Second)
	// 12 s with 3 s of accumulated outage: demand at least a third of the
	// line rate to prove the flow kept recovering.
	gotBps := float64(d.sink.GoodputBytes()) * 8 / 12
	if gotBps < 10e6/3 {
		t.Fatalf("goodput %.2f Mb/s across flaps, want > 3.33", gotBps/1e6)
	}
	if tmo := d.src.Stats().Timeouts; tmo > 20 {
		t.Fatalf("%d timeouts across 10 flaps suggests RTO backoff during outages", tmo)
	}
}

// TestFreezeIndependentOfPause: probe control (Pause/Resume) and fault
// injection (Freeze/Unfreeze) are independent axes; resuming one must not
// clear the other.
func TestFreezeIndependentOfPause(t *testing.T) {
	d := newDumbbell(1, 10_000_000, 10*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Start(0)
	d.s.RunUntil(500 * sim.Millisecond)
	d.src.Pause()
	d.src.Freeze()
	d.src.Resume()
	if !d.src.Frozen() || d.src.paused {
		t.Fatalf("after Resume: frozen=%v paused=%v, want true/false", d.src.Frozen(), d.src.paused)
	}
	sent := d.src.Stats().SentPkts
	d.s.RunUntil(sim.Second)
	if got := d.src.Stats().SentPkts; got != sent {
		t.Fatalf("resumed-but-frozen sender transmitted: %d -> %d", sent, got)
	}
	d.src.Unfreeze()
	d.src.Pause()
	if d.src.Frozen() || !d.src.paused {
		t.Fatalf("after Unfreeze+Pause: frozen=%v paused=%v, want false/true", d.src.Frozen(), d.src.paused)
	}
}

// TestPauseResume: Pause suspends a running sender's new transmissions and
// Resume lifts the suspension.
func TestPauseResume(t *testing.T) {
	d := newDumbbell(15, 10_000_000, 40*sim.Millisecond, netem.QueueDropTail, Config{})
	d.src.Start(0)
	d.s.RunUntil(5 * sim.Second)
	d.src.Pause()
	if !d.src.paused {
		t.Fatal("paused false after Pause")
	}
	d.s.RunUntil(10 * sim.Second)
	d.src.Resume()
	if d.src.paused {
		t.Fatal("paused true after Resume")
	}
}
