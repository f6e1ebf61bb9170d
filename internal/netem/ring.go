package netem

// ring is a FIFO over a power-of-two circular buffer: push and pop are O(1)
// and move no other element, and the storage is reused once it has grown to
// the backlog's high-water mark. Pipe keeps its in-flight packets in one and
// queueCore its backlog.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// at returns a pointer to the i-th oldest entry, 0 <= i < n.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest entry, zeroing its slot so the ring
// does not retain what it held.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	//simlint:ignore hotpathalloc amortised growth: doubles up to the backlog's high-water mark, then never again
	next := make([]T, size)
	for i := 0; i < r.n; i++ {
		next[i] = *r.at(i)
	}
	r.buf = next
	r.head = 0
}
