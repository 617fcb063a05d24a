// Package par runs the independent items of one job on a bounded set of
// goroutines. It is the only worker pool in the module: a lake load, a
// build's profiling and forest indexing, a query's per-column gather, a
// batch's queries, the SA-join graph build and a coordinator's calls to
// its shards all fan out through For.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(s, i) for every i in [0, n) on at most workers goroutines
// (0 selects GOMAXPROCS; never more than n) and returns once every call
// it started has returned. Items are handed out in ascending order from
// one counter, so cheap and expensive items mix without a barrier, and
// when item i has started, every item below it has started too. Each
// goroutine makes its own state with newState (the zero S when newState
// is nil) and passes it to each of its calls, so the state is never
// shared and never locked. fn must write only to its own item's output.
//
// No further item starts once ctx is done or a call has failed. For then
// returns ctx.Err() when ctx is done, else the error of the lowest item
// that failed, so it returns nil only when every item ran and none
// failed. On one goroutine For runs inline on the caller's and allocates
// nothing.
func For[S any](ctx context.Context, n, workers int, newState func() S, fn func(s S, i int) error) error {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers > 1 {
		return spread(ctx, n, workers, newState, fn)
	}
	var s S
	if newState != nil && n > 0 {
		s = newState()
	}
	var failed error
	for i := 0; i < n && failed == nil && ctx.Err() == nil; i++ {
		failed = fn(s, i)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return failed
}

// spread is For on workers > 1 goroutines. Its shared state is one
// value, so a run allocates it, the worker closure and the goroutines.
func spread[S any](ctx context.Context, n, workers int, newState func() S, fn func(S, int) error) error {
	var run struct {
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		failAt  int
		failed  error
		pending sync.WaitGroup
	}
	run.failAt = n
	work := func() {
		defer run.pending.Done()
		var s S
		if newState != nil {
			s = newState()
		}
		for !run.stop.Load() && ctx.Err() == nil {
			i := int(run.next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(s, i); err != nil {
				run.stop.Store(true)
				run.mu.Lock()
				if i < run.failAt {
					run.failAt, run.failed = i, err
				}
				run.mu.Unlock()
			}
		}
	}
	run.pending.Add(workers)
	for range workers {
		go work()
	}
	run.pending.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return run.failed
}
