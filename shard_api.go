package d3l

import (
	"context"
	"errors"

	"d3l/internal/core"
)

// This file is the engine-level surface of the sharded serving path
// (see internal/shard): the shard's phases of the core scatter-gather
// protocol — probe, gather, explain — under the engine's lock, and the
// writes at coordinator-assigned ids that keep every shard's ids the
// monolith's. The coordinator's phases, depth merge and result merge,
// are core.MergeProbeDepths and core.MergeShardPartials. The exactness argument lives in
// internal/core/shardsearch.go; nothing here adds semantics beyond the
// d3l Engine's usual lock discipline.

// ErrUnsupported reports a query feature the sharded execution path
// does not implement (currently WithJoins: the SA-join graph spans
// shards). The HTTP layer maps it to 501.
var ErrUnsupported = errors.New("d3l: not supported in sharded mode")

// ShardQuery is a Query option list resolved for the sharded execution
// path, under the same validation Query performs.
type ShardQuery struct {
	// K is the effective answer size (0 for explanation-only queries).
	K int
	// ExplainFor is the lake table to explain against, when requested.
	ExplainFor string
	// PartialOK marks the query as accepting a degraded answer from a
	// subset of shards (WithPartialResults).
	PartialOK bool
	// Spec is the resolved core query parameter block shards run with.
	Spec core.QuerySpec
}

// ResolveShardQuery validates a Query option list for sharded
// execution. WithJoins is rejected with ErrUnsupported.
func ResolveShardQuery(opts ...QueryOption) (*ShardQuery, error) {
	cfg, err := newQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.joins {
		return nil, errors.Join(ErrUnsupported, errors.New("d3l: WithJoins requires the SA-join graph, which spans shards"))
	}
	return &ShardQuery{
		K:          cfg.k,
		ExplainFor: cfg.explainFor,
		PartialOK:  cfg.partialOK,
		Spec:       cfg.spec(),
	}, nil
}

// Prepare profiles a target once for the shard executors (ShardProbe,
// ShardGather, ShardExplain) and for AddProfiled: N1QL's Prepare to
// their Execute. One core.Target serves both phases of a query and
// every identically configured shard of a set (see core.Target).
func (e *Engine) Prepare(t *Table) (*core.Target, error) { return e.core.Prepare(t) }

// PrepareAll is Prepare for a whole lake's tables, profiled on the
// engine's Options.Parallelism workers by the bulk path New itself
// uses; slot i is tables[i]'s target.
func (e *Engine) PrepareAll(tables []*Table) ([]*core.Target, error) {
	return e.core.PrepareAll(tables)
}

// WriteIDs are where a write lands in a shard's id space: the table id
// an Add takes and the first attribute id its fresh profiles take. A
// coordinator hands them out in write order for its whole set (see
// core.WriteIDs).
type WriteIDs = core.WriteIDs

// ErrWriteIDs reports assigned write ids an engine cannot take: below
// its next ids, as a stale or repeated write is, or too far past them.
// The HTTP layer maps it to 400.
var ErrWriteIDs = core.ErrWriteIDs

// AddProfiled is the splice half of Add, for a table Prepare has
// already profiled — on this engine or any identically configured one:
// shard.BuildSet profiles a whole lake with PrepareAll before it hands
// each table to its owner. The target is consumed (the engine keeps its
// profiles, stamped with the table's id), so it is added at most once.
// The table lands at at — the ids a coordinator assigned it — or at the
// engine's next ids when at is nil; the ids it skips become dead fill
// slots.
func (e *Engine) AddProfiled(t *Table, target *core.Target, at *WriteIDs) (int, error) {
	var id int
	err := e.mutate(func() (err error) {
		id, err = e.core.AddProfiled(t, target, at)
		return err
	})
	return id, err
}

// UpdateAt is Update with the fresh attributes placed from the
// assigned attribute id attr on.
func (e *Engine) UpdateAt(t *Table, attr int) (stats UpdateStats, err error) {
	err = e.mutate(func() (err error) {
		stats, err = e.core.UpdateAt(t, attr)
		return err
	})
	return stats, err
}

// ShardProbe runs the probe phase of one sharded query on this engine.
func (e *Engine) ShardProbe(ctx context.Context, target *core.Target, spec core.QuerySpec) (*core.ShardProbe, error) {
	return e.core.ShardProbe(ctx, target, spec)
}

// ShardGather runs the gather phase of one sharded query on this
// engine at the coordinator's imposed depths.
func (e *Engine) ShardGather(ctx context.Context, target *core.Target, spec core.QuerySpec, depths *core.ShardDepths) (*core.ShardPartial, error) {
	return e.core.ShardGather(ctx, target, spec, depths)
}

// ShardExplain computes the Table I-style explanation rows against a
// lake table owned by this shard. Explanations are purely pairwise —
// only the spec's evidence mask affects the rows, never the other
// shards' contents — so routing them to the owning shard is exact.
func (e *Engine) ShardExplain(ctx context.Context, target *core.Target, lakeTable string, spec core.QuerySpec) ([]PairExplanation, error) {
	return e.core.Explain(ctx, target, lakeTable, spec)
}
