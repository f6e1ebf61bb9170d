package alloctest

import (
	"strings"
	"testing"
)

var (
	sink []byte
	tiny *int64
)

// allocate makes two heap allocations per call, one of them from the tiny
// allocator.
//
//go:noinline
func allocate() { sink, tiny = make([]byte, 64), new(int64) }

// TestCount: a stretch that allocates nothing reads 0 and no stacks; one
// that allocates reads its exact count, and the stacks name the function
// that allocated.
func TestCount(t *testing.T) {
	if n, stacks := Count(func() {}); n != 0 || stacks != "" {
		t.Fatalf("empty stretch: %d allocations, stacks %q", n, stacks)
	}
	n, stacks := Count(func() {
		for i := 0; i < 3; i++ {
			allocate()
		}
	})
	if n != 6 {
		t.Fatalf("%d allocations, want 6", n)
	}
	if !strings.Contains(stacks, "objects at\n") || !strings.Contains(stacks, "alloctest.allocate") {
		t.Fatalf("stacks do not name the allocating site:\n%s", stacks)
	}
}

// TestRuntimeGoroutine: only a whole stack whose goroutine the runtime
// started, other than the one running main, is the runtime's own.
func TestRuntimeGoroutine(t *testing.T) {
	for _, tc := range []struct {
		funcs []string
		want  bool
	}{
		{[]string{"runtime.(*timers).addHeap", "runtime.(*scavengerState).sleep", "runtime.bgscavenge", "runtime.goexit"}, true},
		{[]string{"runtime.growslice", "mptcpsim/internal/mptcp.(*Stream).deliver", "testing.tRunner", "runtime.goexit"}, false},
		{[]string{"runtime.mallocgc", "main.main", "runtime.main", "runtime.goexit"}, false},
		{[]string{"runtime.mallocgc", "runtime.bgsweep"}, false}, // cut short: whose goroutine is unknown
		{[]string{"runtime.goexit"}, false},
	} {
		if got := runtimeGoroutine(tc.funcs); got != tc.want {
			t.Errorf("runtimeGoroutine(%v) = %v, want %v", tc.funcs, got, tc.want)
		}
	}
}
