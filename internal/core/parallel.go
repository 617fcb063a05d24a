package core

import (
	"context"
	"fmt"

	"d3l/internal/par"
)

// ForEachQuery runs fn(i) for every i in [0,n) across the engine's
// query worker pool (bounded by Options.Parallelism), honouring ctx: no
// further fn starts once ctx is cancelled or a call has failed, and the
// ctx error, else the lowest failing item's, is returned after the pool
// drains. It is the fan-out primitive behind the public layer's
// QueryBatch and the SA-join graph build, so both obey one parallelism
// setting. fn must write only to its own index's state.
func (e *Engine) ForEachQuery(ctx context.Context, n int, fn func(int) error) error {
	return par.For(ctx, n, e.queryParallelism(), nil, func(_ struct{}, i int) error { return fn(i) })
}

// queryParallelism reads Options.Parallelism for the query side (0
// selects GOMAXPROCS in par.For). It takes the read lock itself
// (callers use it before entering their own locked region) so it is
// coherent with SetParallelism.
func (e *Engine) queryParallelism() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.opts.Parallelism
}

// SetParallelism re-bounds the engine's worker pools. Parallelism is a
// property of the serving host, not of the indexed data — a snapshot
// does not carry it, and a loaded engine starts at 0 — so unlike every
// other option it is mutable after build and after LoadEngine. Rankings
// are identical at any setting, so in-flight queries are unaffected
// beyond their worker count. 0 selects GOMAXPROCS.
func (e *Engine) SetParallelism(n int) error {
	if n < 0 {
		return fmt.Errorf("core: Parallelism must be non-negative, got %d", n)
	}
	e.mu.Lock()
	e.opts.Parallelism = n
	e.mu.Unlock()
	return nil
}
