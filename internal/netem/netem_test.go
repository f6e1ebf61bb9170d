package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/sim"
)

func mkData(seq int64, size int, r *Route) *Packet {
	return DataPacket(seq, size, 0, r)
}

// TestNewRouteHopLimit: a packet's hop cursor is 16 bits, so NewRoute
// takes 65 535 hops and panics at one more.
func TestNewRouteHopLimit(t *testing.T) {
	hops := make([]Node, maxRouteHops+1)
	if r := NewRoute(hops[:maxRouteHops]...); r.Len() != maxRouteHops {
		t.Fatalf("route len %d, want %d", r.Len(), maxRouteHops)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRoute accepted 65 536 hops")
		}
	}()
	NewRoute(hops...)
}

func TestPacketRunsRouteInOrder(t *testing.T) {
	s := sim.New(1)
	var order []string
	mk := func(name string) Node {
		return nodeFunc(func(p *Packet) {
			order = append(order, name)
			if name != "sink" {
				p.SendOn()
			}
		})
	}
	r := NewRoute(mk("a"), mk("b"), mk("sink"))
	p := mkData(0, MSS, r)
	p.SendOn()
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "sink" {
		t.Fatalf("order = %v", order)
	}
}

type nodeFunc func(*Packet)

func (f nodeFunc) Recv(p *Packet) { f(p) }

func TestPacketOffRoutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := mkData(0, MSS, NewRoute())
	p.SendOn()
}

func TestPipeDelaysExactly(t *testing.T) {
	s := sim.New(1)
	var at sim.Time
	c := &Collector{OnRecv: func(*Packet) { at = s.Now() }}
	pipe := NewPipe(s, 40*sim.Millisecond, "p")
	p := mkData(0, MSS, NewRoute(pipe, c))
	s.At(5*sim.Millisecond, func() { p.SendOn() })
	s.Run()
	if at != 45*sim.Millisecond {
		t.Fatalf("delivered at %v, want 45ms", at)
	}
	if pipe.Delay() != 40*sim.Millisecond || pipe.Name() != "p" {
		t.Fatalf("accessors wrong")
	}
}

func TestPipePreservesOrderAndOverlaps(t *testing.T) {
	s := sim.New(1)
	var seqs []int64
	c := &Collector{OnRecv: func(p *Packet) { seqs = append(seqs, p.Seq) }}
	pipe := NewPipe(s, 10*sim.Millisecond, "p")
	r := NewRoute(pipe, c)
	for i := 0; i < 5; i++ {
		i := i
		s.At(sim.Time(i)*sim.Millisecond, func() {
			mkData(int64(i), MSS, r).SendOn()
		})
	}
	s.Run()
	if len(seqs) != 5 {
		t.Fatalf("%d delivered", len(seqs))
	}
	for i, q := range seqs {
		if q != int64(i) {
			t.Fatalf("out of order: %v", seqs)
		}
	}
}

func TestDropTailServiceRate(t *testing.T) {
	s := sim.New(1)
	var times []sim.Time
	c := &Collector{OnRecv: func(*Packet) { times = append(times, s.Now()) }}
	// 10 Mb/s: a 1500-byte packet serializes in 1.2 ms.
	q := NewDropTail(s, 10_000_000, 100, "q")
	r := NewRoute(q, c)
	for i := 0; i < 3; i++ {
		mkData(int64(i), MSS, r).SendOn()
	}
	s.Run()
	want := []sim.Time{sim.Millis(1.2), sim.Millis(2.4), sim.Millis(3.6)}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("departure %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestDropTailDropsWhenFull(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	q := NewDropTail(s, 10_000_000, 5, "q")
	r := NewRoute(q, c)
	for i := 0; i < 20; i++ {
		mkData(int64(i), MSS, r).SendOn()
	}
	s.Run()
	st := q.Stats()
	if st.ArrivedPkts != 20 {
		t.Fatalf("arrived %d", st.ArrivedPkts)
	}
	if st.DroppedPkts != 15 {
		t.Fatalf("dropped %d, want 15", st.DroppedPkts)
	}
	if st.SentPkts != 5 || c.Count != 5 {
		t.Fatalf("sent %d delivered %d", st.SentPkts, c.Count)
	}
	if got := st.LossProb(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("loss prob %v", got)
	}
}

func TestCountersSubAndLossProbEmpty(t *testing.T) {
	a := Counters{ArrivedPkts: 10, DroppedPkts: 2, SentPkts: 8, ArrivedBytes: 100, DroppedBytes: 20, SentBytes: 80}
	b := Counters{ArrivedPkts: 4, DroppedPkts: 1, SentPkts: 3, ArrivedBytes: 40, DroppedBytes: 10, SentBytes: 30}
	d := a.Sub(b)
	if d.ArrivedPkts != 6 || d.DroppedPkts != 1 || d.SentPkts != 5 {
		t.Fatalf("sub pkts wrong: %+v", d)
	}
	if d.ArrivedBytes != 60 || d.DroppedBytes != 10 || d.SentBytes != 50 {
		t.Fatalf("sub bytes wrong: %+v", d)
	}
	if (Counters{}).LossProb() != 0 {
		t.Fatal("empty LossProb should be 0")
	}
}

// Conservation: arrivals = drops + departures + backlog, for any arrival
// pattern, on both queue types.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		for kind := 0; kind < 2; kind++ {
			s := sim.New(seed)
			c := &Collector{}
			var q Queue
			if kind == 0 {
				q = NewDropTail(s, 1_000_000, 7, "dt")
			} else {
				q = NewRED(s, 1_000_000, REDConfig{MinTh: 2, MaxTh: 5, PMax: 0.2, LimitPkts: 10, Weight: 0.2}, "red")
			}
			r := NewRoute(q, c)
			for i, raw := range sizes {
				size := 40 + int(raw)*6 // 40..1570 bytes
				at := sim.Time(i) * 100 * sim.Microsecond
				p := mkData(int64(i), size, r)
				s.At(at, func() { p.SendOn() })
			}
			s.Run()
			st := q.Stats()
			if st.ArrivedPkts != st.DroppedPkts+st.SentPkts+int64(q.Len()) {
				return false
			}
			if st.ArrivedBytes != st.DroppedBytes+st.SentBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestREDNoDropsBelowMinTh(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	cfg := REDConfig{MinTh: 25, MaxTh: 50, PMax: 0.1, LimitPkts: 300, Weight: 0.002}
	q := NewRED(s, 10_000_000, cfg, "red")
	r := NewRoute(q, c)
	// Send 20 packets back to back: instantaneous queue stays below minth,
	// so the EWMA certainly does.
	for i := 0; i < 20; i++ {
		mkData(int64(i), MSS, r).SendOn()
	}
	s.Run()
	if q.Stats().DroppedPkts != 0 {
		t.Fatalf("dropped %d below minth", q.Stats().DroppedPkts)
	}
	if c.Count != 20 {
		t.Fatalf("delivered %d", c.Count)
	}
}

func TestREDDropsUnderSustainedOverload(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	q := NewRED(s, 10_000_000, PaperRED(10_000_000), "red")
	r := NewRoute(q, c)
	// Offer 2x the line rate for 2 seconds: the queue must engage RED and
	// shed roughly half the load, keeping the average around the curve.
	interval := 600 * sim.Microsecond // 2500 pkt/s vs service 833 pkt/s... strongly overloaded
	n := 3000
	for i := 0; i < n; i++ {
		p := mkData(int64(i), MSS, r)
		s.At(sim.Time(i)*interval, func() { p.SendOn() })
	}
	s.Run()
	st := q.Stats()
	if st.DroppedPkts == 0 {
		t.Fatal("no drops under overload")
	}
	// The physical limit is 300 packets; backlog may never have exceeded it.
	if q.Len() > 300 {
		t.Fatalf("backlog %d exceeds physical limit", q.Len())
	}
	// Conservation again, with backlog.
	if st.ArrivedPkts != st.DroppedPkts+st.SentPkts+int64(q.Len()) {
		t.Fatalf("conservation: %+v len=%d", st, q.Len())
	}
}

func TestREDDropProbCurve(t *testing.T) {
	s := sim.New(1)
	cfg := REDConfig{MinTh: 25, MaxTh: 50, PMax: 0.1, LimitPkts: 300, Weight: 0.002}
	q := NewRED(s, 10_000_000, cfg, "red")
	cases := []struct {
		avg  float64
		want float64
	}{
		{0, 0}, {24.9, 0}, {25, 0}, {37.5, 0.05}, {49.9999, 0.1},
		{50, 0.1}, {75, 0.55}, {99.9999, 1}, {100, 1}, {200, 1},
	}
	for _, tc := range cases {
		q.avg = tc.avg
		if got := q.dropProb(); math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("dropProb(avg=%v) = %v, want %v", tc.avg, got, tc.want)
		}
	}
}

// Property: RED drop probability is nondecreasing in the average queue size.
func TestPropertyREDCurveMonotone(t *testing.T) {
	s := sim.New(1)
	q := NewRED(s, 10_000_000, PaperRED(10_000_000), "red")
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 500)
		b = math.Mod(b, 500)
		if a > b {
			a, b = b, a
		}
		q.avg = a
		pa := q.dropProb()
		q.avg = b
		pb := q.dropProb()
		return pa <= pb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperREDScaling(t *testing.T) {
	cfg := PaperRED(10_000_000)
	if cfg.MinTh != 25 || cfg.MaxTh != 50 || cfg.PMax != 0.1 || cfg.LimitPkts != 300 {
		t.Fatalf("10Mbps config %+v", cfg)
	}
	cfg2 := PaperRED(20_000_000)
	if cfg2.MinTh != 50 || cfg2.MaxTh != 100 || cfg2.LimitPkts != 600 {
		t.Fatalf("20Mbps config %+v", cfg2)
	}
	half := PaperRED(5_000_000)
	if half.MinTh != 12.5 || half.LimitPkts != 150 {
		t.Fatalf("5Mbps config %+v", half)
	}
}

func TestREDIdleDecay(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	cfg := REDConfig{MinTh: 5, MaxTh: 10, PMax: 0.5, LimitPkts: 50, Weight: 0.5}
	q := NewRED(s, 10_000_000, cfg, "red")
	r := NewRoute(q, c)
	// Build up a backlog to push avg well up.
	for i := 0; i < 20; i++ {
		mkData(int64(i), MSS, r).SendOn()
	}
	s.Run()
	peak := q.AvgLen()
	if peak <= 0 {
		t.Fatal("avg did not rise")
	}
	// A long idle period must decay the average toward zero on next arrival.
	s.At(s.Now()+10*sim.Second, func() { mkData(99, MSS, r).SendOn() })
	s.Run()
	if q.AvgLen() >= peak/2 {
		t.Fatalf("avg %v did not decay from %v after idle", q.AvgLen(), peak)
	}
}

func TestLinkComposition(t *testing.T) {
	s := sim.New(1)
	var at sim.Time
	c := &Collector{OnRecv: func(*Packet) { at = s.Now() }}
	l := NewLink(s, LinkConfig{RateBps: 10_000_000, Delay: 40 * sim.Millisecond, Kind: QueueDropTail}, "lnk")
	r := NewRoute(l.Q, l.P, c)
	mkData(0, MSS, r).SendOn()
	s.Run()
	want := sim.Millis(1.2) + 40*sim.Millisecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if len(l.Hops()) != 2 {
		t.Fatalf("hops %d", len(l.Hops()))
	}
}

func TestLinkDefaultDropTailSize(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, LinkConfig{RateBps: 10_000_000, Delay: 0, Kind: QueueDropTail}, "l")
	dt, ok := l.Q.(*DropTail)
	if !ok {
		t.Fatal("expected DropTail")
	}
	if dt.limitPkts != 100 {
		t.Fatalf("default limit %d, want 100 (htsim default)", dt.limitPkts)
	}
}

func TestLinkREDOverride(t *testing.T) {
	s := sim.New(1)
	cfg := REDConfig{MinTh: 1, MaxTh: 2, PMax: 0.9, LimitPkts: 3, Weight: 0.1}
	l := NewLink(s, LinkConfig{RateBps: 10_000_000, Delay: 0, Kind: QueueRED, REDCfg: &cfg}, "l")
	red, ok := l.Q.(*RED)
	if !ok {
		t.Fatal("expected RED")
	}
	if red.cfg != cfg {
		t.Fatalf("cfg %+v", red.cfg)
	}
}

func TestLinkRecvActsAsNode(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	l := NewLink(s, LinkConfig{RateBps: 10_000_000, Delay: sim.Millisecond, Kind: QueueDropTail}, "l")
	// Route: link (as single node) won't forward past the pipe without the
	// collector appended to the route; build the route with Q,P explicitly.
	r := NewRoute(l.Q, l.P, c)
	mkData(0, 100, r).SendOn()
	s.Run()
	if c.Count != 1 {
		t.Fatalf("delivered %d", c.Count)
	}
}

func TestAckPacketFields(t *testing.T) {
	p := AckPacket(4500, 7*sim.Millisecond, nil)
	if !p.Ack || p.Seq != 4500 || p.Size != AckSize {
		t.Fatalf("ack fields: %+v", p)
	}
	if p.SentAt != 7*sim.Millisecond {
		t.Fatalf("echoed timestamp: %+v", p)
	}
}

func BenchmarkDropTailForwarding(b *testing.B) {
	s := sim.New(1)
	c := &Collector{}
	q := NewDropTail(s, 1_000_000_000, 1000, "q")
	r := NewRoute(q, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mkData(int64(i), MSS, r).SendOn()
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
}
