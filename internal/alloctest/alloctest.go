// Package alloctest measures the allocations of one warm stretch of code
// exactly and, when there are any, names the call stacks that made them.
// It serves the zero-allocation locks of the per-packet paths.
package alloctest

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Count calls f twice, as testing.AllocsPerRun(1, f) does: once to warm
// up, then once measured, on one P. It returns the measured call's number
// of heap allocations, a process-wide MemStats.Mallocs delta as
// AllocsPerRun's, and when that is not zero the call stacks that allocated
// during it with their object counts, largest first. Every allocation of
// the measured call is profiled (runtime.MemProfileRate 1), so the stacks
// are complete.
//
// One case reads 0 although Mallocs moved: when every profiled
// allocation of the measured call ran on a goroutine the Go runtime
// started itself (the background scavenger's timer, for one, can grow a
// P's timer heap in the middle of any stretch). An allocation of f's
// always leaves a stack of f's own, and then the whole delta counts.
func Count(f func()) (allocs uint64, stacks string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC() // publish every allocation profiled so far
	before := profile()
	rate := runtime.MemProfileRate
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runtime.MemProfileRate = 1
	f()
	runtime.MemProfileRate = rate
	runtime.ReadMemStats(&m1)
	if allocs = m1.Mallocs - m0.Mallocs; allocs == 0 {
		return 0, ""
	}
	runtime.GC() // publish the measured call's allocations
	type site struct {
		n     int64
		stack string
	}
	var sites []site
	for stk, n := range profile() {
		if n -= before[stk]; n <= 0 {
			continue
		}
		if funcs, text := frames(stk); !runtimeGoroutine(funcs) && !slices.Contains(funcs, profileFunc) {
			sites = append(sites, site{n, text})
		}
	}
	if len(sites) == 0 {
		return 0, ""
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].stack < sites[j].stack
	})
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "%d objects at\n%s", s.n, s.stack)
	}
	return allocs, b.String()
}

// profileFunc names profile, whose own bookkeeping between the two
// snapshots is no allocation of the measured call.
var profileFunc = runtime.FuncForPC(reflect.ValueOf(profile).Pointer()).Name()

// runtimeGoroutine reports whether a stack, innermost function first, is
// whole and runs on a goroutine the runtime started itself: it ends in
// runtime.goexit, and the goroutine's entry function just before it is
// in package runtime but is not runtime.main, which runs the program's
// main. A stack cut at the profile's depth ends elsewhere.
func runtimeGoroutine(funcs []string) bool {
	n := len(funcs)
	return n >= 2 && funcs[n-1] == "runtime.goexit" &&
		strings.HasPrefix(funcs[n-2], "runtime.") && funcs[n-2] != "runtime.main"
}

// profile reads the memory profile's cumulative object counts by stack.
func profile() map[[32]uintptr]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// frames expands a profiled stack into its functions, innermost first,
// and renders it one frame per line.
func frames(stk [32]uintptr) (funcs []string, text string) {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var b strings.Builder
	fs := runtime.CallersFrames(pcs)
	for {
		fr, more := fs.Next()
		funcs = append(funcs, fr.Function)
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
		if !more {
			return funcs, b.String()
		}
	}
}
