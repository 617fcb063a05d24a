package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachIndex runs fn(i) for every i in [0,n) across at most
// parallelism goroutines and returns once all calls have finished.
// parallelism 0 selects GOMAXPROCS; 1 (or n < 2) runs inline. Work is
// handed out through an atomic counter, so cheap and expensive items
// mix without a scheduling barrier. fn must write only to its own
// index's state.
func forEachIndex(n, parallelism int, fn func(int)) {
	forEachIndexWith(n, parallelism, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// forEachIndexWith is forEachIndex for work that carries state from one
// item to the next: every worker makes one S and hands it to each of its
// fn calls, so the state is never shared and never locked.
func forEachIndexWith[S any](n, parallelism int, newState func() S, fn func(S, int)) {
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		if n > 0 {
			state := newState()
			for i := 0; i < n; i++ {
				fn(state, i)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(state, i)
			}
		}()
	}
	wg.Wait()
}

// forEachIndexCtx is forEachIndex with cooperative cancellation: no
// further fn(i) starts once ctx is cancelled, already-started calls
// run to completion, and the ctx error (if any) is returned after the
// pool drains. Callers treat a non-nil return as "the work is
// incomplete — discard it"; a context that cancels in the instant
// between the last fn returning and the pool draining still reports
// the error, which keeps the contract simple (cancelled ⇒ ctx.Err(),
// never a partial answer). A background context takes the original
// uninstrumented path.
func forEachIndexCtx(ctx context.Context, n, parallelism int, fn func(int)) error {
	if ctx.Done() == nil {
		forEachIndex(n, parallelism, fn)
		return nil
	}
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ForEachQuery runs fn(i) for every i in [0,n) across the engine's
// query worker pool (bounded by Options.Parallelism), honouring ctx:
// no further fn starts once ctx is cancelled and the ctx error is
// returned after the pool drains. It is the fan-out primitive the
// public layer's QueryBatch shares with BatchSearchSpec, so both sides
// obey one parallelism setting. fn must write only to its own index's
// state.
func (e *Engine) ForEachQuery(ctx context.Context, n int, fn func(int)) error {
	return forEachIndexCtx(ctx, n, e.queryParallelism(), fn)
}

// queryParallelism resolves Options.Parallelism for the query side.
// It takes the read lock itself (callers use it before entering their
// own locked region) so it is coherent with SetParallelism.
func (e *Engine) queryParallelism() int {
	e.mu.RLock()
	p := e.opts.Parallelism
	e.mu.RUnlock()
	if p == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// SetParallelism re-bounds the engine's worker pools. Parallelism is a
// property of the serving host, not of the indexed data — a snapshot
// built with -workers 1 on a laptop should still saturate a 64-core
// replica — so unlike every other option it is mutable after build and
// after LoadEngine. Rankings are identical at any setting, so in-flight
// queries are unaffected beyond their worker count. 0 selects
// GOMAXPROCS.
func (e *Engine) SetParallelism(n int) error {
	if n < 0 {
		return fmt.Errorf("core: Parallelism must be non-negative, got %d", n)
	}
	e.mu.Lock()
	e.opts.Parallelism = n
	e.mu.Unlock()
	return nil
}
