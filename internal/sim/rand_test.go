package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// Model-based test of the lazily filled source against math/rand's, in the
// pattern of queue_model_test.go. A byte string is a program: its first
// eight bytes are the seed, and each later byte is one operation, run in
// lockstep on NewRand and on rand.New(rand.NewSource(seed)); every result
// must be equal. Byte b draws kind b%10 (1+b/10) times, except kind 9,
// which reseeds both generators from the next eight bytes.
// TestSourceMatchesMathRand runs built and random programs;
// FuzzSourceMatchesMathRand runs whatever the fuzzer finds.

const randReseed = 9

// countingSource is math/rand's source, counting the draws taken from it
// since it was last seeded.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Seed(seed int64) { c.Source64.Seed(seed); c.draws = 0 }
func (c *countingSource) Int63() int64    { c.draws++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.Source64.Uint64() }

// randBounds are the arguments Intn and Int63n cycle through: powers of two
// and not, below 2³¹ (Int31n's path) and above it.
var randBounds = [...]int64{1, 2, 3, 10, 1 << 20, 1<<20 + 1, 1<<31 - 1, 1 << 31, 1<<40 + 3, math.MaxInt64}

type randModel struct {
	t         testing.TB
	prog      []byte
	pc        int
	got, want *rand.Rand
	ref       *countingSource // want's source
	arg       int
	// longest is the most draws any seed's stream reached; reseeds are the
	// draw counts at which a reseed came.
	longest int
	reseeds []int
}

// seed reads the next eight bytes (zero past the end) as a seed.
func (m *randModel) seed() int64 {
	var b [8]byte
	m.pc += copy(b[:], m.prog[min(m.pc, len(m.prog)):])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (m *randModel) draw(kind int) {
	g, w := m.got, m.want
	n := randBounds[m.arg%len(randBounds)]
	m.arg++
	var got, want any
	switch kind {
	case 0:
		got, want = math.Float64bits(g.Float64()), math.Float64bits(w.Float64())
	case 1:
		got, want = g.Intn(int(n)), w.Intn(int(n))
	case 2:
		got, want = g.Int63(), w.Int63()
	case 3:
		got, want = g.Int63n(n), w.Int63n(n)
	case 4:
		got, want = g.Uint64(), w.Uint64()
	case 5:
		if p, q := g.Perm(int(n%24)), w.Perm(int(n%24)); !slices.Equal(p, q) {
			m.t.Fatalf("draw %d: Perm = %v, math/rand %v", m.ref.draws, p, q)
		}
	case 6:
		p, q := make([]int, n%24), make([]int, n%24)
		for i := range p {
			p[i], q[i] = i, i
		}
		g.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		w.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		if !slices.Equal(p, q) {
			m.t.Fatalf("draw %d: Shuffle = %v, math/rand %v", m.ref.draws, p, q)
		}
	case 7:
		got, want = math.Float64bits(g.ExpFloat64()), math.Float64bits(w.ExpFloat64())
	case 8:
		got, want = math.Float64bits(g.NormFloat64()), math.Float64bits(w.NormFloat64())
	}
	if got != want {
		m.t.Fatalf("draw %d, kind %d: %v, math/rand %v", m.ref.draws, kind, got, want)
	}
}

// runRandProgram interprets prog and returns the model for its counters.
func runRandProgram(t testing.TB, prog []byte) *randModel {
	m := &randModel{t: t, prog: prog}
	seed := m.seed()
	m.got = NewRand(seed)
	m.ref = &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	m.want = rand.New(m.ref)
	for m.pc < len(m.prog) {
		b := int(m.prog[m.pc])
		m.pc++
		if b%10 == randReseed {
			m.reseeds = append(m.reseeds, m.ref.draws)
			seed := m.seed()
			m.got.Seed(seed)
			m.want.Seed(seed)
			continue
		}
		for i := 0; i <= b/10; i++ {
			m.draw(b % 10)
		}
		m.longest = max(m.longest, m.ref.draws)
	}
	return m
}

// progSeed is a program's (or a reseed's) eight seed bytes.
func progSeed(seed int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(seed))
}

// uint64Draws is a program fragment of exactly n Uint64 draws, one source
// draw each.
func uint64Draws(n int) []byte {
	var p []byte
	for ; n > 26; n -= 26 {
		p = append(p, 4+250)
	}
	if n > 0 {
		p = append(p, byte(4+10*(n-1)))
	}
	return p
}

// reseedAt is a program: seed, exactly at draws from it, a reseed to
// reseed, then mixed draws.
func reseedAt(seed int64, at int, reseed int64, mixed []byte) []byte {
	p := append(progSeed(seed), uint64Draws(at)...)
	p = append(p, randReseed)
	p = append(p, progSeed(reseed)...)
	return append(p, mixed...)
}

// randEdgeSeeds are the seeds math/rand's normalisation treats specially:
// zero and its aliases (multiples of 2³¹−1, which map to 89482311),
// negatives, and the int64 extremes.
var randEdgeSeeds = []int64{
	0, 1, -1, lehmerM, -lehmerM, 2 * lehmerM, -3 * lehmerM, lehmerM - 1, lehmerM + 1,
	89482311, math.MinInt64, math.MaxInt64,
}

// randHorizons are the draw counts around the lazy fill's edges: the last
// fresh tap (272), the last fresh feed (333), and the first feed wrap (606).
var randHorizons = []int{0, 1, 272, 273, 333, 334, 606, 607}

func TestSourceMatchesMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seeds := append([]int64(nil), randEdgeSeeds...)
	for i := 0; i < 100; i++ {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	for _, seed := range seeds {
		mixed := make([]byte, 300)
		rng.Read(mixed)
		for i, b := range mixed {
			if b%10 == randReseed {
				mixed[i]-- // one stream, no reseed
			}
		}
		if m := runRandProgram(t, append(progSeed(seed), mixed...)); m.longest <= 2*rngLen {
			t.Fatalf("seed %d: the stream reached only %d draws", seed, m.longest)
		}
	}
	for _, at := range randHorizons {
		for _, seed := range randEdgeSeeds {
			mixed := make([]byte, 100)
			rng.Read(mixed)
			m := runRandProgram(t, reseedAt(seed, at, rng.Int63(), mixed))
			if len(m.reseeds) == 0 || m.reseeds[0] != at {
				t.Fatalf("seed %d: reseeds at %v, want the first at %d", seed, m.reseeds, at)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	mixed := []byte{0, 11, 22, 33, 44, 55, 66, 77, 88, 250, 251, 252, 253, 254, 255}
	for i, at := range randHorizons {
		f.Add(reseedAt(randEdgeSeeds[i], at, randEdgeSeeds[len(randEdgeSeeds)-1-i], mixed))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			t.Skip("longer programs add time, not cases")
		}
		runRandProgram(t, prog)
	})
}

// TestNewRandAfterFreeMatchesFresh: a generator drawn to either side of
// the lazy fill's edges and far past them, handed back with FreeRand and
// taken again by NewRand with a new seed, draws what a fresh math/rand
// generator of that seed draws.
func TestNewRandAfterFreeMatchesFresh(t *testing.T) {
	for _, draws := range append(slices.Clone(randHorizons), 5000) {
		for i, seed := range randEdgeSeeds {
			r := NewRand(int64(draws)*7 + int64(i))
			for range draws {
				r.Int63()
			}
			FreeRand(r)
			got := NewRand(seed)
			if got != r {
				// The pool may drop a put (the race detector does, at
				// random); reseed the used generator as NewRand would.
				got = r
				got.Seed(seed)
			}
			want := rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				if k%2 == 0 {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("after %d draws, seed %d: draw %d = %d, fresh %d", draws, seed, k, g, w)
					}
				} else if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("after %d draws, seed %d: draw %d = %v, fresh %v", draws, seed, k, g, w)
				}
			}
			FreeRand(got)
		}
	}
}

// panicMessage runs f and returns what it panicked with, or nil.
func panicMessage(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestReleaseRand: after ReleaseRand the simulation's Rand panics, naming
// the release; a second ReleaseRand does nothing; FreeRand(nil) panics.
func TestReleaseRand(t *testing.T) {
	s := New(1)
	want := s.Rand().Int63()
	s.ReleaseRand()
	if v := panicMessage(func() { s.Rand() }); v != "sim: Rand after ReleaseRand: the run's generator was handed back" {
		t.Fatalf("Rand after ReleaseRand: panic %v", v)
	}
	if v := panicMessage(s.ReleaseRand); v != nil {
		t.Fatalf("second ReleaseRand panicked: %v", v)
	}
	if got := New(1).Rand().Int63(); got != want {
		t.Fatalf("a simulation after a release draws %d, want %d", got, want)
	}
	if v := panicMessage(func() { FreeRand(nil) }); v != "sim: FreeRand of a nil generator" {
		t.Fatalf("FreeRand(nil): panic %v", v)
	}
}

// TestReleasedSimRefuses: ReleaseRand ends the run. Every call that would
// schedule, re-arm, cancel, free or advance then panics naming itself,
// before it touches the queue, and the run's counters stay readable.
func TestReleasedSimRefuses(t *testing.T) {
	s := New(1)
	tm := s.ScheduleTimer(5*Second, funcHandler(func() {}))
	s.Schedule(Second, funcHandler(func() {}))
	s.RunUntil(2 * Second)
	s.ReleaseRand()
	h := funcHandler(func() {})
	for op, call := range map[string]func(){
		"Schedule":         func() { s.Schedule(3*Second, h) },
		"ScheduleAfter":    func() { s.ScheduleAfter(Second, h) },
		"ScheduleTimer":    func() { s.ScheduleTimer(3*Second, h) },
		"ScheduleTimerSeq": func() { s.ScheduleTimerSeq(3*Second, 99, h) },
		"Reschedule":       func() { s.Reschedule(tm, 4*Second) },
		"RescheduleSeq":    func() { s.RescheduleSeq(tm, 4*Second, 99) },
		"Cancel":           func() { s.Cancel(tm) },
		"Free":             func() { s.Free(tm) },
		"RunUntil":         func() { s.RunUntil(10 * Second) },
		"Run":              s.Run,
	} {
		want := "sim: " + op + " after ReleaseRand: the run is over and its memory handed back"
		if v := panicMessage(call); v != want {
			t.Errorf("%s after ReleaseRand: panic %v, want %q", op, v, want)
		}
	}
	if s.Now() != 2*Second || s.Processed() != 1 || s.Pending() != 1 || !tm.Valid() || tm.e.idx < 0 || tm.e.at != 5*Second || s.Stats().HeapMax != 2 {
		t.Fatalf("after the refusals: now %v, %d processed, %d pending (timer heap index %d at %v), high water %d; want 2s, 1, 1 (queued at 5s), 2",
			s.Now(), s.Processed(), s.Pending(), tm.e.idx, tm.e.at, s.Stats().HeapMax)
	}
}

var randSink uint64

// BenchmarkRandSeed is a seed and the draws after it, on NewRand and on
// math/rand's source: one draw, the few dozen a campaign sample takes, and
// enough to pass the fill horizon.
func BenchmarkRandSeed(b *testing.B) {
	for _, draws := range []int{1, 40, 1000} {
		for _, c := range []struct {
			name string
			r    *rand.Rand
		}{{"sim", NewRand(1)}, {"math", rand.New(rand.NewSource(1))}} {
			b.Run(c.name+"/draws="+strconv.Itoa(draws), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.r.Seed(int64(i))
					for j := 0; j < draws; j++ {
						randSink += math.Float64bits(c.r.Float64())
					}
				}
			})
		}
	}
}

// BenchmarkRandDraw is one Float64 from a source past its fill horizon, the
// per-decision cost of RED and random loss on a long run.
func BenchmarkRandDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{{"sim", NewRand(1)}, {"math", rand.New(rand.NewSource(1))}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < 2*rngLen; i++ {
				c.r.Uint64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				randSink += math.Float64bits(c.r.Float64())
			}
		})
	}
}
