package netem

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mptcpsim/internal/sim"
)

func TestPoolForIsPerSim(t *testing.T) {
	s1, s2 := sim.New(1), sim.New(2)
	p1 := PoolFor(s1)
	if PoolFor(s1) != p1 {
		t.Fatal("PoolFor not stable for one Sim")
	}
	if PoolFor(s2) == p1 {
		t.Fatal("two Sims share a pool")
	}
}

func TestPoolForPanicsOnForeignAux(t *testing.T) {
	s := sim.New(1)
	s.SetAux("someone else's state")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when Aux holds foreign state")
		}
	}()
	PoolFor(s)
}

// TestPacketPoolRecycles: a freed packet comes back only as its own kind —
// so Sack storage never ends up on a data segment — and comes back with
// nothing of its previous life.
func TestPacketPoolRecycles(t *testing.T) {
	s := sim.New(1)
	pl := PoolFor(s)
	r := NewRoute(&Collector{})
	d := pl.NewData(1, 3000, MSS, 5*sim.Millisecond, r)
	if d.Seq != 3000 || d.Size != MSS || d.SentAt != 5*sim.Millisecond || d.Ack {
		t.Fatalf("data fields: %+v", d)
	}
	d.Retx = true
	d.SendOn() // the collector frees it; the hop cursor has moved
	if pl.FreeCount() != 1 {
		t.Fatalf("free count %d, want 1", pl.FreeCount())
	}

	a := pl.NewAck(6000, sim.Millisecond, r)
	if a == d {
		t.Fatal("a freed data segment was recycled as an ACK")
	}
	if pl.FreeCount() != 1 {
		t.Fatalf("NewAck took from the data free list: free count %d, want 1", pl.FreeCount())
	}
	if !a.Ack || a.Retx || a.Seq != 6000 || a.Size != AckSize || a.SentAt != sim.Millisecond {
		t.Fatalf("ack fields: %+v", a)
	}
	if a.SackLen() != 0 || a.sack == nil {
		t.Fatalf("fresh ACK has SACK report %v and storage %p, want empty and non-nil", sackOf(a), a.sack)
	}
	if d.sack != nil {
		t.Fatal("a data segment owns SACK storage")
	}
	a.Retx = true
	a.SetSack([]Block{{7500, 9000}})
	storage := a.sack
	a.SendOn()

	d2 := pl.NewData(3, 4500, 700, 9*sim.Millisecond, nil)
	if d2 != d {
		t.Fatal("pool did not recycle the freed data segment")
	}
	if want := (Packet{Seq: 4500, Size: 700, SentAt: 9 * sim.Millisecond, pool: pl}); !reflect.DeepEqual(*d2, want) {
		t.Fatalf("recycled data segment not reset:\n got %+v\nwant %+v", *d2, want)
	}
	a2 := pl.NewAck(12000, 3*sim.Millisecond, nil)
	if a2 != a {
		t.Fatal("pool did not recycle the freed ACK")
	}
	want := Packet{Seq: 12000, Size: AckSize, Ack: true, SentAt: 3 * sim.Millisecond, sack: storage, pool: pl}
	if !reflect.DeepEqual(*a2, want) || a2.SackLen() != 0 {
		t.Fatalf("recycled ACK not reset:\n got %+v\nwant %+v", *a2, want)
	}
	if pl.FreeCount() != 0 {
		t.Fatalf("free count %d, want 0", pl.FreeCount())
	}
}

// TestPacketPoolSlabs: a miss allocates slabPackets packets at once, so the
// next slabPackets-1 misses of that kind allocate nothing.
func TestPacketPoolSlabs(t *testing.T) {
	pl := PoolFor(sim.New(1))
	pl.NewData(0, 0, MSS, 0, nil)
	pl.NewAck(0, 0, nil)
	if allocs := testing.AllocsPerRun(slabPackets-2, func() {
		pl.NewData(0, 0, MSS, 0, nil)
		pl.NewAck(0, 0, nil)
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per packet pair inside a slab, want 0", allocs)
	}
}

// TestPacketPoolCarved: Carved counts the packets of the slabs a pool has
// allocated, per kind, and recycling carves nothing.
func TestPacketPoolCarved(t *testing.T) {
	pl := PoolFor(sim.New(1))
	carved := func(wantData, wantAcks int, when string) {
		t.Helper()
		if data, acks := pl.Carved(); data != wantData || acks != wantAcks {
			t.Fatalf("%s: carved %d data segments and %d ACKs, want %d and %d", when, data, acks, wantData, wantAcks)
		}
	}
	carved(0, 0, "a fresh pool")
	d := pl.NewData(0, 0, MSS, 0, nil)
	carved(slabPackets, 0, "one data segment")
	pl.NewAck(0, 0, nil)
	carved(slabPackets, slabPackets, "one packet of each kind")
	for i := 0; i < slabPackets; i++ {
		pl.NewData(0, 0, MSS, 0, nil)
	}
	d.Free()
	pl.NewData(0, 0, MSS, 0, nil)
	carved(2*slabPackets, slabPackets, "slabPackets+1 live data segments")
}

// TestPacketLayout locks what a packet costs. A packet is 72 bytes, and the
// fields every forwarding hop touches (route, hop, the list link, a pipe's
// delivery key, Size and the flags) come first, within 40 bytes; an ACK's
// SACK report is 68 bytes; a data slab is 1 152 bytes and an ACK slab
// 2 240, and the allocator serves them from its 1 280- and 2 304-byte size
// classes. A field added or widened has to be argued for: it is paid once
// per packet of every slab, and one that pushes a slab into the next size
// class fails here.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is for 64-bit platforms")
	}
	var p Packet
	for name, tc := range map[string]struct{ got, want uintptr }{
		"Packet":     {unsafe.Sizeof(p), 72},
		"sackReport": {unsafe.Sizeof(sackReport{}), 68},
		"dataSlab":   {unsafe.Sizeof(dataSlab{}), 1152},
		"ackSlab":    {unsafe.Sizeof(ackSlab{}), 2240},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", name, tc.got, tc.want)
		}
	}
	for name, off := range map[string]uintptr{
		"route": unsafe.Offsetof(p.route), "next": unsafe.Offsetof(p.next),
		"dueAt": unsafe.Offsetof(p.dueAt), "dueSeq": unsafe.Offsetof(p.dueSeq),
		"Size": unsafe.Offsetof(p.Size), "hop": unsafe.Offsetof(p.hop),
		"Ack": unsafe.Offsetof(p.Ack), "Retx": unsafe.Offsetof(p.Retx),
		"freed": unsafe.Offsetof(p.freed), "listed": unsafe.Offsetof(p.listed),
	} {
		if off >= 40 {
			t.Errorf("forwarding field %s at offset %d, want below 40", name, off)
		}
	}
	t.Run("slab size classes", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			ack  bool
			max  uint64 // the size class a slab must stay in
		}{
			{"data", false, 1280},
			{"ack", true, 2304},
		} {
			if got := slabBytes(tc.ack); got > tc.max {
				t.Errorf("%s slab: %d bytes allocated per refill, want at most %d", tc.name, got, tc.max)
			} else {
				t.Logf("%s slab: %d bytes allocated per refill", tc.name, got)
			}
		}
	})
}

// slabBytes reports the heap bytes one refill of a fresh pool allocates,
// over 100 refills of one kind: the least of three tries, so an allocation
// elsewhere in the process during one try does not count.
func slabBytes(ack bool) uint64 {
	const refills = 100
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		pl := new(PacketPool)
		l := &pl.data
		if ack {
			l = &pl.acks
		}
		runtime.ReadMemStats(&before)
		for range refills {
			pl.refill(l, ack)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/refills)
	}
	return best
}

// TestPacketSackCapacitySurvivesRecycle: an ACK keeps its SACK storage
// through Free and reuse, emptied but never reallocated, and a full report
// fits it without allocating.
func TestPacketSackCapacitySurvivesRecycle(t *testing.T) {
	s := sim.New(1)
	pl := PoolFor(s)
	p := pl.NewAck(0, 0, nil)
	p.SetSack([]Block{{1500, 3000}, {4500, 6000}})
	if got := sackOf(p); !reflect.DeepEqual(got, []Block{{1500, 3000}, {4500, 6000}}) {
		t.Fatalf("report %v after SetSack", got)
	}
	storage := p.sack
	p.Free()
	q := pl.NewAck(0, 0, nil)
	if q.SackLen() != 0 {
		t.Fatalf("recycled SACK report not emptied: %v", sackOf(q))
	}
	if q.sack != storage {
		t.Fatal("recycled ACK lost its SACK storage")
	}
	full := make([]Block, MaxSackBlocks)
	for i := range full {
		full[i] = Block{int64(i)*3000 + 1500, int64(i)*3000 + 3000}
	}
	if allocs := testing.AllocsPerRun(10, func() { q.SetSack(full) }); allocs != 0 {
		t.Fatalf("a full SACK report allocates %.1f, want 0", allocs)
	}
	if got := sackOf(q); !reflect.DeepEqual(got, full) {
		t.Fatalf("report %v, want %v", got, full)
	}
}

// TestSetSackPanics: a data segment has no SACK storage, no report holds
// more than MaxSackBlocks blocks, and a block must be non-empty, above the
// last and in (seq, seq + 2³²); each panic names the packet's seq.
func TestSetSackPanics(t *testing.T) {
	const seq = 4242
	pl := PoolFor(sim.New(1))
	ack := func() *Packet { return pl.NewAck(seq, 0, nil) }
	for name, tc := range map[string]struct {
		p  *Packet
		bs []Block
	}{
		"data segment":    {pl.NewData(0, seq, MSS, 0, nil), []Block{{seq + 1, seq + 2}}},
		"too many blocks": {ack(), make([]Block, MaxSackBlocks+1)},
		"at seq":          {ack(), []Block{{seq, seq + 100}}},
		"below seq":       {ack(), []Block{{seq - 100, seq + 100}}},
		"past 2^32":       {ack(), []Block{{seq + 1, seq + 1<<32}}},
		"empty":           {ack(), []Block{{seq + 1, seq + 100}, {seq + 200, seq + 200}}},
		"out of order":    {ack(), []Block{{seq + 200, seq + 300}, {seq + 1, seq + 100}}},
		"overlapping":     {ack(), []Block{{seq + 1, seq + 100}, {seq + 99, seq + 300}}},
	} {
		if msg := setSackPanic(tc.p, tc.bs); !strings.Contains(msg, "seq 4242") {
			t.Errorf("%s: SetSack panic %q, want one naming seq 4242", name, msg)
		}
	}
}

// TestSegmentSizeLimit: Size is a uint16, so NewData and DataPacket take a
// segment of up to 65 535 bytes and panic, naming its seq, above that.
func TestSegmentSizeLimit(t *testing.T) {
	pl := PoolFor(sim.New(1))
	if p := pl.NewData(0, 4242, math.MaxUint16, 0, nil); p.Size != math.MaxUint16 {
		t.Fatalf("NewData of %d bytes has Size %d", math.MaxUint16, p.Size)
	}
	for name, build := range map[string]func(){
		"NewData":    func() { pl.NewData(0, 4242, math.MaxUint16+1, 0, nil) },
		"DataPacket": func() { DataPacket(4242, math.MaxUint16+1, 0, nil) },
		"negative":   func() { DataPacket(4242, -1, 0, nil) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "seq 4242") {
					t.Errorf("%s: panic %q, want one naming seq 4242", name, msg)
				}
			}()
			build()
		}()
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := sim.New(1)
	pl := PoolFor(s)
	p := pl.NewData(0, 0, MSS, 0, nil)
	p.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	p.Free()
}

func TestFreeHeapPacketIsNoOp(t *testing.T) {
	p := DataPacket(0, MSS, 0, nil)
	p.Free()
	p.Free() // still a no-op: heap packets are owned by the GC
	if p.Size != MSS {
		t.Fatal("heap packet mutated by Free")
	}
}

func TestUseAfterFreePanicsOnSendOn(t *testing.T) {
	s := sim.New(1)
	pl := PoolFor(s)
	r := NewRoute(&Collector{})
	p := pl.NewData(0, 0, MSS, 0, r)
	p.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic forwarding a freed packet")
		}
	}()
	p.SendOn()
}

// TestDebugPoisonsFreedPackets: a debug Free poisons the packet but keeps
// its free-list link, so every poisoned packet comes back, last freed
// first.
func TestDebugPoisonsFreedPackets(t *testing.T) {
	s := sim.New(1)
	pl := PoolFor(s)
	pl.SetDebug(true)
	var ps [3]*Packet
	for i := range ps {
		ps[i] = pl.NewData(0, 12345, MSS, 0, NewRoute(&Collector{}))
	}
	for _, p := range ps {
		p.Free()
		if p.Seq == 12345 || p.Route() != nil {
			t.Fatalf("debug free did not poison: %+v", p)
		}
	}
	if pl.FreeCount() != len(ps) {
		t.Fatalf("free count %d, want %d", pl.FreeCount(), len(ps))
	}
	for i := len(ps) - 1; i >= 0; i-- {
		if p := pl.NewData(0, 0, MSS, 0, nil); p != ps[i] {
			t.Fatalf("reuse %d: got %p, want the packet freed %d-th (%p)", len(ps)-i, p, i+1, ps[i])
		}
	}
	if data, acks := pl.Carved(); pl.FreeCount() != 0 || data != slabPackets || acks != 0 {
		t.Fatalf("free count %d, carved %d data segments and %d ACKs after reusing every freed packet", pl.FreeCount(), data, acks)
	}
}

// TestQueueDropFreesPacket: drop sites are packet owners — a pooled packet
// dropped at a full queue must return to the pool.
func TestQueueDropFreesPacket(t *testing.T) {
	s := sim.New(1)
	pl := PoolFor(s)
	q := NewDropTail(s, 10_000_000, 1, "q")
	c := &Collector{}
	r := NewRoute(q, c)
	for i := 0; i < 3; i++ {
		pl.NewData(0, int64(i)*MSS, MSS, s.Now(), r).SendOn()
	}
	s.Run()
	// Only two distinct packets ever exist: the first dropped packet is
	// recycled into the third NewData before being dropped again, and the
	// enqueued one is freed by the collector after delivery.
	if got := pl.FreeCount(); got != 2 {
		t.Fatalf("pool holds %d packets, want 2 (drops recycled mid-loop)", got)
	}
	if q.Stats().DroppedPkts != 2 || c.Count != 1 {
		t.Fatalf("dropped %d delivered %d", q.Stats().DroppedPkts, c.Count)
	}
}

// TestPipeSingleTimer: a pipe with many packets in flight keeps exactly one
// pending kernel event, and still delivers each packet at its exact time.
func TestPipeSingleTimer(t *testing.T) {
	s := sim.New(1)
	var times []sim.Time
	c := &Collector{OnRecv: func(*Packet) { times = append(times, s.Now()) }}
	pipe := NewPipe(s, 10*sim.Millisecond, "p")
	r := NewRoute(pipe, c)
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		s.At(sim.Time(i)*sim.Millisecond, func() { mkData(int64(i), MSS, r).SendOn() })
	}
	s.RunUntil(12 * sim.Millisecond)
	if pipe.InFlight() < 2 {
		t.Fatalf("expected overlapping packets in flight, got %d", pipe.InFlight())
	}
	// One pipe timer + the remaining injection events; the pipe itself must
	// contribute exactly one.
	if got := s.Pending() - (n - 13); got != 1 {
		t.Fatalf("pipe holds %d pending events, want 1", got)
	}
	s.Run()
	if len(times) != n {
		t.Fatalf("delivered %d, want %d", len(times), n)
	}
	for i, at := range times {
		if want := sim.Time(i)*sim.Millisecond + 10*sim.Millisecond; at != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

// TestPipeProcessedCountPerPacket: the single-timer pipe must still burn
// exactly one kernel event per delivered packet, so Sim.Processed() counts
// are unchanged from the one-event-per-packet design (pool bookkeeping must
// not leak into diagnostics).
func TestPipeProcessedCountPerPacket(t *testing.T) {
	s := sim.New(1)
	c := &Collector{}
	pipe := NewPipe(s, 10*sim.Millisecond, "p")
	r := NewRoute(pipe, c)
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		s.At(sim.Time(i)*sim.Millisecond, func() { mkData(int64(i), MSS, r).SendOn() })
	}
	s.Run()
	if c.Count != n {
		t.Fatalf("delivered %d", c.Count)
	}
	// n injection events + n delivery events, nothing more or less.
	if got := s.Processed(); got != 2*n {
		t.Fatalf("Processed = %d, want %d", got, 2*n)
	}
}

// TestPipeReentrantRoute: a route that traverses two pipes back to back
// exercises re-arming while delivering.
func TestPipeReentrantRoute(t *testing.T) {
	s := sim.New(1)
	var at sim.Time
	c := &Collector{OnRecv: func(*Packet) { at = s.Now() }}
	p1 := NewPipe(s, 3*sim.Millisecond, "p1")
	p2 := NewPipe(s, 4*sim.Millisecond, "p2")
	r := NewRoute(p1, p2, c)
	mkData(0, MSS, r).SendOn()
	s.Run()
	if at != 7*sim.Millisecond {
		t.Fatalf("delivered at %v, want 7ms", at)
	}
}

// BenchmarkPipePooled measures the full pooled lifecycle through a pipe:
// alloc from pool, transit, free at the collector. Steady state must be
// allocation-free.
func BenchmarkPipePooled(b *testing.B) {
	s := sim.New(1)
	pl := PoolFor(s)
	c := &Collector{}
	pipe := NewPipe(s, sim.Millisecond, "p")
	r := NewRoute(pipe, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.NewData(0, int64(i)*MSS, MSS, s.Now(), r).SendOn()
		s.Run()
	}
}

// TestTransitZeroAlloc locks the per-packet path of every forwarding
// element at zero allocations once warm: pool allocation at the source, one
// element, Free at the collector.
func TestTransitZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		entry func(*sim.Sim) Node
	}{
		{"pipe", func(s *sim.Sim) Node { return NewPipe(s, sim.Millisecond, "p") }},
		{"droptail", func(s *sim.Sim) Node { return NewDropTail(s, 100e6, 100, "q") }},
		{"red", func(s *sim.Sim) Node { return NewRED(s, 100e6, PaperRED(100e6), "q") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			pool := PoolFor(s)
			delivered := 0
			route := NewRoute(tc.entry(s), &Collector{OnRecv: func(*Packet) { delivered++ }})
			transit := func() {
				pool.NewData(0, int64(delivered)*MSS, MSS, s.Now(), route).SendOn()
				s.Run()
			}
			transit() // warm the packet and event pools
			allocs := testing.AllocsPerRun(1000, transit)
			if allocs != 0 {
				t.Fatalf("%.1f allocs per packet, want 0", allocs)
			}
			if delivered < 1001 {
				t.Fatalf("delivered %d packets, want every one sent", delivered)
			}
		})
	}
}
