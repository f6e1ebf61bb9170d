package netem

import (
	"math/rand"
	"testing"

	"mptcpsim/internal/sim"
)

// A pipe-merge program drives k logical hops of one constant delay. Byte 0
// picks k (1 + bits 0-1) and the delay (bits 2-3, mergeDelays). Each further
// pair of bytes is one step:
//
//	b0: hop = b0 % k; the step comes gap = (b0 >> 2) & 7 ticks of
//	    mergeTick after the previous one (0: at the same instant)
//	b1: 1 + b1&3 admissions into the hop at that instant; each packet, once
//	    delivered, is admitted again into the same hop (b1 >> 2) & 3 times
//
// runMergeProgram runs the program twice: once with a pipe per hop, once
// with one pipe shared by every hop, each on a fresh Sim, and requires the
// same deliveries in the same order, each at the same time, with the same
// kernel sequence counter and event count, and the same Processed() at the
// end. A step is a kernel event of its own, scheduled up front, so
// admissions interleave with deliveries at equal instants.
const mergeTick = 250 * sim.Microsecond

var mergeDelays = [4]sim.Time{0, mergeTick, sim.Millisecond, 2*sim.Millisecond + mergeTick}

// mergeDelivery is one packet leaving a pipe: when, the kernel's event count
// and sequence counter at that moment, which packet and over which hop.
type mergeDelivery struct {
	at        sim.Time
	processed uint64
	seq       uint64
	id        int64
	hop       int
}

// mergeRun is one execution of a program: its pipes (one per hop, or one
// shared), the route of each hop and the delivery log.
type mergeRun struct {
	s       *sim.Sim
	routes  []*Route
	bounces map[int64]int // re-admissions left per packet
	log     []mergeDelivery
	nextID  int64
	readmit int
}

// mergeSink is the hop's terminal node: it logs the delivery, re-admits
// the packet into the hop while it has bounces left, and then frees it.
type mergeSink struct {
	run *mergeRun
	hop int
}

func (k *mergeSink) Recv(p *Packet) {
	r := k.run
	r.log = append(r.log, mergeDelivery{
		at: r.s.Now(), processed: r.s.Processed(), seq: r.s.ReserveSeq(), id: p.Seq, hop: k.hop,
	})
	if r.bounces[p.Seq] > 0 {
		r.bounces[p.Seq]--
		r.readmit++
		p.SetRoute(r.routes[k.hop])
		p.SendOn()
		return
	}
	p.Free()
}

// mergeStep is one program step, a kernel event.
type mergeStep struct {
	run            *mergeRun
	hop, n, bounce int
}

func (st *mergeStep) RunEvent(sim.Time) {
	r := st.run
	for i := 0; i < st.n; i++ {
		p := PoolFor(r.s).NewData(0, r.nextID, MSS, 0, r.routes[st.hop])
		r.bounces[r.nextID] = st.bounce
		r.nextID++
		p.SendOn()
	}
}

func newMergeRun(k int, delay sim.Time, shared bool) *mergeRun {
	r := &mergeRun{s: sim.New(1), bounces: make(map[int64]int)}
	var one *Pipe
	if shared {
		one = NewPipe(r.s, delay, "shared")
	}
	for h := 0; h < k; h++ {
		p := one
		if !shared {
			p = NewPipe(r.s, delay, "hop")
		}
		r.routes = append(r.routes, NewRoute(p, &mergeSink{run: r, hop: h}))
	}
	return r
}

// runMergeProgram runs prog both ways and reports which cases it reached.
func runMergeProgram(t *testing.T, prog []byte) map[string]int {
	t.Helper()
	if len(prog) == 0 {
		return nil
	}
	k, delay := 1+int(prog[0]&3), mergeDelays[(prog[0]>>2)&3]
	cover := make(map[string]int)
	if delay == 0 {
		cover["0 ms delay"]++
	}
	var runs [2]*mergeRun
	for i, shared := range []bool{false, true} {
		r := newMergeRun(k, delay, shared)
		at := sim.Time(0)
		for pc := 1; pc+1 < len(prog); pc += 2 {
			b0, b1 := prog[pc], prog[pc+1]
			gap := sim.Time((b0 >> 2) & 7)
			if gap == 0 && pc > 1 {
				cover["steps at one instant"]++
			}
			at += gap * mergeTick
			st := &mergeStep{run: r, hop: int(b0) % k, n: 1 + int(b1&3), bounce: int(b1>>2) & 3}
			if st.n > 1 {
				cover["admissions at one instant"]++
			}
			r.s.Schedule(at, st)
		}
		r.s.Run()
		runs[i] = r
	}
	private, shared := runs[0], runs[1]
	if private.s.Processed() != shared.s.Processed() {
		t.Fatalf("Processed: %d with a pipe per hop, %d with one shared pipe", private.s.Processed(), shared.s.Processed())
	}
	if len(private.log) != len(shared.log) {
		t.Fatalf("%d deliveries with a pipe per hop, %d with one shared pipe", len(private.log), len(shared.log))
	}
	for i, want := range private.log {
		if got := shared.log[i]; got != want {
			t.Fatalf("delivery %d: %+v with one shared pipe, %+v with a pipe per hop", i, got, want)
		}
		if i > 0 && want.hop != private.log[i-1].hop {
			cover["consecutive deliveries change hop"]++
		}
		if i > 0 && want.at == private.log[i-1].at {
			cover["deliveries at one instant"]++
		}
	}
	if private.readmit > 0 {
		cover["re-admission from a delivery"]++
	}
	return cover
}

var mergeSeeds = []struct {
	name  string
	prog  []byte
	cover string
}{
	{"0 ms delay, re-admitted", []byte{0<<2 | 2, 0, 0x0d, 4, 0x02, 1, 1, 0x04, 8}, "0 ms delay"},
	{"bursts at one instant", []byte{2<<2 | 3, 0, 3, 1, 3, 2, 3, 3, 3}, "admissions at one instant"},
	{"hops interleave across a delay", []byte{1<<2 | 1, 0, 0, 5, 1, 4, 0, 5, 1}, "consecutive deliveries change hop"},
	{"re-admission into a shared pipe", []byte{3<<2 | 3, 0, 0x0c, 1, 0x0c, 2, 0x0c, 0x10, 0x0c}, "re-admission from a delivery"},
}

func TestPipeMergeSeeds(t *testing.T) {
	for _, seed := range mergeSeeds {
		if cover := runMergeProgram(t, seed.prog); cover[seed.cover] == 0 {
			t.Errorf("seed %q did not reach %q: %v", seed.name, seed.cover, cover)
		}
	}
}

func TestPipeMergeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	total := make(map[string]int)
	for i := 0; i < 500; i++ {
		prog := make([]byte, 1+2*(1+rng.Intn(40)))
		rng.Read(prog)
		for c, v := range runMergeProgram(t, prog) {
			total[c] += v
		}
	}
	for _, c := range []string{
		"0 ms delay",
		"steps at one instant",
		"admissions at one instant",
		"consecutive deliveries change hop",
		"deliveries at one instant",
		"re-admission from a delivery",
	} {
		if total[c] == 0 {
			t.Errorf("case %q never occurred in 500 random programs", c)
		}
	}
}

func FuzzPipeMerge(f *testing.F) {
	for _, seed := range mergeSeeds {
		f.Add(seed.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			t.Skip("longer programs add time, not cases")
		}
		runMergeProgram(t, prog)
	})
}
