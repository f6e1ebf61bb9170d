// Package ctxcase seeds ctxflow violations in an in-scope library path.
package ctxcase

import "context"

// mintRoot makes a fresh root context in library code.
func mintRoot() context.Context {
	return context.Background() // want `context.Background\(\) in library code severs the caller's cancellation`
}

// mintTODO is just as bad.
func mintTODO() context.Context {
	return context.TODO() // want `context.TODO\(\) in library code severs the caller's cancellation`
}

// LatePosition takes ctx in the wrong slot.
func LatePosition(n int, ctx context.Context) { // want `context.Context must be the first parameter of LatePosition \(found at position 2\)`
	<-ctx.Done()
	_ = n
}

// Blocking receives from a channel but cannot be cancelled.
func Blocking(ch chan int) int { // want `exported Blocking receives from a channel but takes no context.Context`
	return <-ch
}

// Sending sends on a channel but cannot be cancelled.
func Sending(ch chan int) { // want `exported Sending sends on a channel but takes no context.Context`
	ch <- 1
}

// Spawning fans out but cannot be cancelled.
func Spawning(f func()) { // want `exported Spawning spawns goroutines but takes no context.Context`
	go f()
}

// Selecting blocks in select but cannot be cancelled.
func Selecting(a, b chan int) int { // want `exported Selecting blocks in select but takes no context.Context`
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// CallsAware calls a context-taking function, so it needs a ctx itself
// (Background/TODO are banned here).
func CallsAware() { // want `exported CallsAware calls the context-taking Aware but takes no context.Context`
	Aware(nil, 0)
}

// Aware is fine: ctx first, observed.
func Aware(ctx context.Context, n int) int {
	select {
	case <-ctx.Done():
		return 0
	default:
		return n
	}
}

// Ignored accepts a ctx it never looks at.
func Ignored(ctx context.Context, n int) int { // want `ctx parameter of Ignored is never observed on any path`
	return n + 1
}

// Discarded documents non-use explicitly: accepted.
func Discarded(_ context.Context, n int) int {
	return n + 1
}

// Threaded passes ctx through a closure: observed.
func Threaded(ctx context.Context, f func(context.Context)) {
	g := func() { f(ctx) }
	g()
}

// Pure loops without blocking: no ctx needed.
func Pure(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// suppressedRoot keeps a justified fresh root.
func suppressedRoot() context.Context {
	//simlint:ignore ctxflow nil-config default chokepoint documented in the API
	return context.Background()
}
