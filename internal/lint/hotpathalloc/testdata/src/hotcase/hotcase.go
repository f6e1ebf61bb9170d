// Package hotcase exercises the hotpathalloc analyzer: hot roots by
// method name, transitive hotness, //simlint:hot and //simlint:cold
// markers, and each allocation idiom.
package hotcase

import "mptcpsim/internal/sim"

type comp struct {
	s    *sim.Sim
	buf  []int
	next sim.Time
}

func (c *comp) RunEvent(now sim.Time) {
	c.s.At(now+1, func(now sim.Time) {}) // want `\(\*sim.Sim\).At allocates a closure slot` `closure allocated in hot path RunEvent`
	c.s.Schedule(now+1, c)               // zero-alloc path: a pointer never boxes
	c.helperAppend(1)
	c.helperBox(now)
	c.helperOK(now)
	c.helperSuppressed()
	c.failure(now)
}

// helperAppend is hot transitively (called from RunEvent).
func (c *comp) helperAppend(v int) {
	var xs []int
	xs = append(xs, v) // want `append to xs grows an unpreallocated local slice`
	c.buf = append(c.buf, xs...)
}

func sinkAny(v any) {}

func sinkVariadic(args ...any) {}

func (c *comp) helperBox(now sim.Time) {
	sinkAny(now)             // want `converting .*sim.Time to any boxes`
	sinkVariadic(now, c.buf) // want `converting .*sim.Time to any boxes` `converting \[\]int to any boxes`
	sinkAny(c)               // a pointer fits the interface word: no boxing
	sinkAny(nil)             // nil never boxes
}

func (c *comp) helperOK(now sim.Time) {
	ys := make([]int, 0, 8)
	ys = append(ys, int(now)) // preallocated: amortized zero
	zs := c.buf[:0]
	zs = append(zs, 2) // reused field buffer: amortized zero
	c.buf = zs[:len(ys)]
}

func (c *comp) helperSuppressed() {
	//simlint:ignore hotpathalloc fixture proves suppression reaches hot findings
	h := func() {}
	h()
}

// failure reports an invariant violation; it runs at most once per
// simulation, on the way to an error.
//
//simlint:cold
func (c *comp) failure(now sim.Time) {
	sinkVariadic(now, "bad") // cold: boxing on the failure path is free
}

// Recv is a hot root by name (the per-packet delivery entry point).
func (c *comp) Recv(now sim.Time) {
	c.s.After(1, func(now sim.Time) {}) // want `\(\*sim.Sim\).After allocates a closure slot` `closure allocated in hot path Recv`
}

// marked is not a root by name, but the directive makes it one.
//
//simlint:hot
func marked(s *sim.Sim, t sim.Time) {
	s.At(t, func(now sim.Time) {}) // want `\(\*sim.Sim\).At allocates a closure slot` `closure allocated in hot path marked`
}

// coldPlain is neither a root nor reachable from one: the same idioms are
// fine in setup/teardown code.
func coldPlain(s *sim.Sim, t sim.Time) {
	var xs []int
	xs = append(xs, 1)
	s.At(t, func(now sim.Time) { _ = xs })
	sinkAny(t)
}

// ctrl has the shape of a core.Controller: tcp calls Acked and Lost on
// every ACK and loss from another package, so they are hot roots by name.
type ctrl struct {
	alpha, wnd []float64
}

func (c *ctrl) Acked(nf int) float64 {
	c.computeAlpha(nf)
	c.scratchOK(nf)
	return c.alpha[0]
}

// computeAlpha is core.OLIA.computeAlpha as it stood before its scratch
// moved into fields: two heap slices per ACK.
func (c *ctrl) computeAlpha(nf int) {
	wnd := make([]float64, nf)    // want `make allocates in hot path computeAlpha`
	metric := make([]float64, nf) // want `make allocates in hot path computeAlpha`
	for p := range wnd {
		c.alpha[p] = wnd[p] + metric[p]
	}
}

func (c *ctrl) Lost(i int) {
	p := new(int)          // want `new allocates in hot path Lost`
	xs := []int{i, i + 1}  // want `slice literal allocates in hot path Lost`
	m := make(map[int]int) // want `make allocates in hot path Lost`
	m[xs[0]] = *p
}

// scratchOK is the fix: field scratch resliced per call, plus a constant-size
// make the compiler keeps on the stack.
func (c *ctrl) scratchOK(nf int) {
	wnd := c.wnd[:nf]
	var fixed [4]float64
	tmp := make([]float64, 4)
	copy(tmp, fixed[:])
	copy(wnd, tmp)
}

// grow is an amortised grower: it allocates, but only until the buffer
// reaches its high-water mark, and says so.
//
//simlint:hot
func (c *ctrl) grow() {
	//simlint:ignore hotpathalloc fixture: amortised growth, doubles to the high-water mark
	c.wnd = make([]float64, 2*len(c.wnd)+8)
}

// fifo is generic: a call through an instantiation must still reach the
// declaration, or everything behind a generic container goes unchecked.
type fifo[T any] struct{ buf []T }

func (f *fifo[T]) push(v T) {
	next := make([]T, len(f.buf)+1) // want `make allocates in hot path push`
	copy(next, f.buf)
	next[len(f.buf)] = v
	f.buf = next
}

type user struct{ q fifo[int] }

func (u *user) RunEvent(now sim.Time) { u.q.push(int(now)) }
