package netem

// Mid-run mutation of the network elements (fault injection): a Pipe's
// delay, a queue's line rate, and a loss element's probability may all be
// retargeted while packets are in flight. These tests pin the transition
// semantics the scenario timeline relies on: in-flight packets keep the
// schedule computed at admission, new admissions use the new parameters,
// and FIFO order plus the exact counters survive every transition.

import (
	"math"
	"testing"

	"mptcpsim/internal/sim"
)

// delivery is one (packet seq, arrival time) observation.
type delivery struct {
	seq int64
	at  sim.Time
}

func recordArrivals(s *sim.Sim, out *[]delivery) *Collector {
	return &Collector{OnRecv: func(p *Packet) {
		*out = append(*out, delivery{seq: p.Seq, at: s.Now()})
	}}
}

// TestPipeSetDelayKeepsInFlight: shrinking the delay while a packet is in
// flight must not reorder the wire. The in-flight packet keeps its original
// departure time; an admission under the shorter delay that would overtake
// it is clamped to depart at the same instant, strictly after in FIFO order.
func TestPipeSetDelayKeepsInFlight(t *testing.T) {
	s := sim.New(1)
	var got []delivery
	c := recordArrivals(s, &got)
	pipe := NewPipe(s, 10*sim.Millisecond, "p")
	route := NewRoute(pipe, c)

	s.At(0, func() { mkData(s, 0, MSS, route).SendOn() }) // departs 10ms
	s.At(2*sim.Millisecond, func() {
		pipe.SetDelay(1 * sim.Millisecond)
		if pipe.Delay() != 1*sim.Millisecond {
			t.Errorf("Delay() = %v after SetDelay(1ms)", pipe.Delay())
		}
		mkData(s, 1, MSS, route).SendOn() // naive 3ms, clamped to 10ms
	})
	s.At(12*sim.Millisecond, func() { mkData(s, 2, MSS, route).SendOn() }) // departs 13ms
	s.Run()

	want := []delivery{
		{0, 10 * sim.Millisecond},
		{1, 10 * sim.Millisecond},
		{2, 13 * sim.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if pipe.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", pipe.InFlight())
	}
}

// TestPipeSetDelayIncrease: growing the delay affects only new admissions;
// the clamp never fires and in-flight packets are untouched.
func TestPipeSetDelayIncrease(t *testing.T) {
	s := sim.New(1)
	var got []delivery
	c := recordArrivals(s, &got)
	pipe := NewPipe(s, 5*sim.Millisecond, "p")
	route := NewRoute(pipe, c)

	s.At(0, func() { mkData(s, 0, MSS, route).SendOn() }) // departs 5ms
	s.At(sim.Millisecond, func() {
		pipe.SetDelay(20 * sim.Millisecond)
		mkData(s, 1, MSS, route).SendOn() // departs 21ms
	})
	s.Run()

	want := []delivery{{0, 5 * sim.Millisecond}, {1, 21 * sim.Millisecond}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPipeSetDelayRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPipe(sim.New(1), 0, "p").SetDelay(-1)
}

// TestQueueSetRateMidService: with packets backlogged, a rate change lets
// the in-service packet finish on its already-armed schedule while every
// queued packet serializes at the new rate on entering service.
func TestQueueSetRateMidService(t *testing.T) {
	s := sim.New(1)
	var got []delivery
	c := recordArrivals(s, &got)
	q := NewDropTail(s, 1_000_000, 100, "q") // MSS tx time: 12ms
	route := NewRoute(q, c)

	s.At(0, func() {
		for i := int64(0); i < 3; i++ {
			mkData(s, i, MSS, route).SendOn()
		}
	})
	s.At(sim.Millisecond, func() {
		q.SetRateBps(10_000_000) // MSS tx time: 1.2ms
		if q.rateBps != 10_000_000 {
			t.Errorf("rate %d b/s after SetRateBps", q.rateBps)
		}
	})
	s.Run()

	want := []delivery{
		{0, 12 * sim.Millisecond},                        // in service at old rate
		{1, 12*sim.Millisecond + 1200*sim.Microsecond},   // first at new rate
		{2, 12*sim.Millisecond + 2*1200*sim.Microsecond}, // second at new rate
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := q.Stats()
	if st.ArrivedPkts != 3 || st.SentPkts != 3 || st.DroppedPkts != 0 {
		t.Fatalf("counters off: %+v", st)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestQueueSetRateWhileIdle: a rate change on an empty queue applies to the
// very next arrival.
func TestQueueSetRateWhileIdle(t *testing.T) {
	s := sim.New(1)
	var got []delivery
	c := recordArrivals(s, &got)
	q := NewDropTail(s, 1_000_000, 100, "q")
	route := NewRoute(q, c)

	s.At(0, func() { q.SetRateBps(12_000_000) }) // MSS tx time: 1ms
	s.At(sim.Millisecond, func() { mkData(s, 0, MSS, route).SendOn() })
	s.Run()

	if len(got) != 1 || got[0].at != 2*sim.Millisecond {
		t.Fatalf("deliveries = %v, want one at 2ms", got)
	}
}

func TestQueueSetRateRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropTail(sim.New(1), 1_000_000, 10, "q").SetRateBps(0)
}

// TestRandomLossSetProbFullThenClear drives the loss probability to 1
// (black hole), back to 0, and checks the verdict counters track every
// transition exactly.
func TestRandomLossSetProbFullThenClear(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	loss := NewRandomLoss(s, 0)
	route := NewRoute(loss, c)

	send := func(n int) {
		for i := 0; i < n; i++ {
			mkData(s, int64(i), MSS, route).SendOn()
		}
		s.Run()
	}

	send(5)
	loss.SetProb(1)
	send(7)
	loss.SetProb(0)
	send(3)

	if loss.Passed != 8 || loss.Dropped != 7 {
		t.Fatalf("passed %d dropped %d, want 8/7", loss.Passed, loss.Dropped)
	}
	if c.Count != 8 {
		t.Fatalf("collector saw %d packets, want 8", c.Count)
	}
	if loss.prob != 0 {
		t.Fatalf("prob = %g, want 0", loss.prob)
	}
}

// TestRandomLossZeroProbDrawsNoRandomness: a transparent loss element must
// not perturb the simulation's RNG stream — the scenario compiler installs
// idle loss elements on links whose loss is only touched by a timeline, and
// specs without timelines must stay byte-identical.
func TestRandomLossZeroProbDrawsNoRandomness(t *testing.T) {
	s := sim.New(42)
	c := &Collector{}
	loss := NewRandomLoss(s, 0)
	route := NewRoute(loss, c)
	for i := 0; i < 100; i++ {
		mkData(s, int64(i), MSS, route).SendOn()
	}
	s.Run()
	if got, want := s.Rand().Float64(), sim.New(42).Rand().Float64(); got != want {
		t.Fatalf("RNG stream perturbed: next draw %v, fresh-sim draw %v", got, want)
	}
}

func TestRandomLossSetProbRejectsOutOfRange(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, build := range map[string]func(){
			"SetProb":       func() { NewRandomLoss(sim.New(1), 0).SetProb(p) },
			"NewRandomLoss": func() { NewRandomLoss(sim.New(1), p) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%g): expected panic", name, p)
					}
				}()
				build()
			}()
		}
	}
}
