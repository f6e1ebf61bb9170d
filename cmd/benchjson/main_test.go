package main

import (
	"strings"
	"testing"
)

// TestCollectMedianOfRuns: with -count N the timing kept is the median run's,
// not the last line's, and allocation figures are the worst seen.
func TestCollectMedianOfRuns(t *testing.T) {
	in := `goos: linux
BenchmarkPipeTransit-2   	30000000	        40.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPipeTransit-2   	20000000	        95.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPipeTransit-2   	31000000	        38.0 ns/op	      16 B/op	       1 allocs/op
BenchmarkPipeTransit-2   	29000000	        41.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPipeTransit-2   	25000000	        60.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEven 	     100	      30 ns/op
BenchmarkEven 	     200	      10 ns/op
BenchmarkEven 	     300	      20 ns/op
BenchmarkEven 	     400	      40 ns/op
BenchmarkOnce-8 	     129	   9111182 ns/op	  217257 B/op	    4598 allocs/op
PASS
ok  	mptcpsim	12.3s
`
	got, err := collect(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"PipeTransit": {Iterations: 29000000, NsPerOp: 41, BPerOp: 16, AllocsOp: 1},
		"Even":        {Iterations: 300, NsPerOp: 20}, // lower middle of 10, 20, 30, 40
		"Once":        {Iterations: 129, NsPerOp: 9111182, BPerOp: 217257, AllocsOp: 4598},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}
