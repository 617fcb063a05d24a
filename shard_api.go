package d3l

import (
	"context"
	"errors"

	"d3l/internal/core"
)

// This file is the engine-level surface of the sharded serving path
// (see internal/shard): thin wrappers that expose the core scatter-
// gather protocol — probe, depth merge, gather, result merge — and the
// mirror mutations that keep a shard set's id space in lockstep. The
// exactness argument lives in internal/core/shardsearch.go; nothing
// here adds semantics beyond the d3l Engine's usual lock discipline.

// Shard protocol types, re-exported for the shard and server layers.
type (
	// ShardProbe is one shard's probe-phase answer: per (target
	// column, forest), the per-depth distinct candidate counts.
	ShardProbe = core.ShardProbe
	// ShardDepths is the coordinator's depth directive derived from
	// the summed probes.
	ShardDepths = core.ShardDepths
	// ShardPartial is one shard's gather-phase answer: best-pair rows
	// per owned candidate table plus the Eq. 2 sample vectors.
	ShardPartial = core.ShardPartial
	// ShardQueryMeta is the resolved query shape all shards must agree
	// on.
	ShardQueryMeta = core.ShardQueryMeta
)

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
		Spec: core.QuerySpec{
			K:               cfg.k,
			Weights:         cfg.weights,
			Disabled:        cfg.disabled,
			CandidateBudget: cfg.budget,
			Parallelism:     cfg.parallelism,
		},
	}, nil
}

// ShardTarget is a query target profiled once for the shard protocol
// (N1QL's Prepare to the two phases' Execute). Profiling is a pure
// function of the table and the engine's immutable options, so one
// ShardTarget serves both phases of a query and every identically
// configured shard of a set; it is read-only after PrepareShardTarget
// and safe to share across goroutines.
type ShardTarget struct {
	profiles []core.Profile
}

// PrepareShardTarget profiles a target for ShardProbe and ShardGather.
func (e *Engine) PrepareShardTarget(target *Table) *ShardTarget {
	return &ShardTarget{profiles: e.core.ProfileTarget(target)}
}

// PrepareShardTargets is PrepareShardTarget for a whole lake's tables,
// profiled on the engine's Options.Parallelism workers by the bulk path
// New itself uses; slot i is tables[i]'s target.
func (e *Engine) PrepareShardTargets(tables []*Table) []*ShardTarget {
	out := make([]*ShardTarget, len(tables))
	for i, profiles := range e.core.ProfileTables(tables) {
		out[i] = &ShardTarget{profiles: profiles}
	}
	return out
}

// AddProfiled is the splice half of Add, for a table PrepareShardTarget
// has already profiled — on this engine or any identically configured
// one: shard.BuildSet profiles a whole lake with PrepareShardTargets
// before its id-lockstep loop hands each table to its owner. The profiles are
// consumed (the engine keeps them, stamped with the table's id), so a
// ShardTarget is added at most once.
func (e *Engine) AddProfiled(t *Table, profiled *ShardTarget) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, err := e.core.AddProfiled(t, profiled.profiles)
	if err != nil {
		return 0, err
	}
	e.invalidateGraph()
	return id, nil
}

// ShardProbe runs the probe phase of one sharded query on this engine.
func (e *Engine) ShardProbe(ctx context.Context, target *ShardTarget, spec core.QuerySpec) (*ShardProbe, error) {
	return e.core.ShardProbeProfiled(ctx, target.profiles, spec)
}

// ShardGather runs the gather phase of one sharded query on this
// engine at the coordinator's imposed depths.
func (e *Engine) ShardGather(ctx context.Context, target *ShardTarget, spec core.QuerySpec, depths *ShardDepths) (*ShardPartial, error) {
	return e.core.ShardGatherProfiled(ctx, target.profiles, spec, depths)
}

// EncodeShardPartial renders a gather answer in its binary wire form
// (see core.EncodeShardPartial).
func EncodeShardPartial(p *ShardPartial) []byte { return core.EncodeShardPartial(p) }

// DecodeShardPartial parses and validates a binary gather answer: an
// error, or a partial MergeShardPartials can score without panicking.
func DecodeShardPartial(data []byte) (*ShardPartial, error) { return core.DecodeShardPartial(data) }

// ShardExplain computes the Table I-style explanation rows against a
// lake table owned by this shard. Explanations are purely pairwise —
// only the spec's evidence mask affects the rows, never the other
// shards' contents — so routing them to the owning shard is exact.
func (e *Engine) ShardExplain(ctx context.Context, target *Table, lakeTable string, spec core.QuerySpec) ([]PairExplanation, error) {
	return e.core.ExplainSpec(ctx, target, lakeTable, spec)
}

// MergeShardDepths replays the monolith's probe-descent stop rule on
// the summed per-shard counts (see core.MergeProbeDepths).
func MergeShardDepths(probes []*ShardProbe) (*ShardDepths, error) {
	return core.MergeProbeDepths(probes)
}

// MergeShardPartials merges the shards' gather answers into the final
// ranking — byte-identical to the monolith's for the same query.
func MergeShardPartials(depths *ShardDepths, partials []*ShardPartial) ([]Result, QueryStats, error) {
	ranked, st, err := core.MergeShardPartials(depths, partials)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return ranked, QueryStats{
		K:              depths.Meta.K,
		CandidatePairs: st.CandidatePairs,
		TablesScored:   st.TablesScored,
	}, nil
}

// MirrorAdd appends a dead table slot mirroring an Add applied on a
// peer shard, keeping this engine's table and attribute id counters in
// lockstep with the owner's (see core.Engine.MirrorAdd).
func (e *Engine) MirrorAdd(name string, numCols int) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, err := e.core.MirrorAdd(name, numCols)
	if err != nil {
		return 0, err
	}
	e.invalidateGraph()
	return id, nil
}

// MirrorUpdate appends dead attribute slots mirroring an in-place
// Update applied on a peer shard; numFresh is the owner's
// UpdateStats.Reprofiled.
func (e *Engine) MirrorUpdate(tid, numFresh int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.core.MirrorUpdate(tid, numFresh); err != nil {
		return err
	}
	e.invalidateGraph()
	return nil
}
