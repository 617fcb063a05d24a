package shard

import (
	"context"
	"fmt"

	"d3l"
	"d3l/internal/core"
)

// Set is N in-process engine shards behind the server.Engine surface:
// the coordinator over one localShard client per engine. Ranking
// queries run the two-phase exact scatter-gather protocol and answer
// byte-identically to a monolith holding the union lake; each write
// goes to its ring owner only, at the ids the coordinator assigned it.
type Set struct {
	coordinator[*core.Target, localShard]
}

// NewSet wraps already-built engines (one per ring slot) in a Set. Each
// engine must hold its tables under the ids a monolith would have
// given them — BuildSet and LoadSet are the two constructors that
// guarantee it.
func NewSet(shards []*d3l.Engine, place *Placement) (*Set, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: a set needs at least 1 shard")
	}
	if place.Shards() != len(shards) {
		return nil, fmt.Errorf("shard: placement is for %d shards, got %d engines", place.Shards(), len(shards))
	}
	s := &Set{}
	s.place = place
	for _, e := range shards {
		s.shards = append(s.shards, localShard{e})
	}
	return s, nil
}

// BuildSet splits a lake across n fresh shards: each table goes to its
// ring owner only, under its monolith id, and each shard fills the ids
// its peers' tables hold with dead slots. Table and attribute ids are
// therefore those of a monolith built from the same lake. A lake slot
// with no columns (a removed table's) goes to no shard: the next table
// on any shard fills it. A lake that ends in such slots is refused
// (ErrUnsupported), since no shard would hold them and a set loaded
// back from disk would give their ids out again.
//
// Profiling is most of the work and depends on neither placement nor
// order (every shard has the same options, hence the same profiler), so
// the whole lake is profiled first, on opts.Parallelism workers by the
// bulk path a monolith build uses; the placing loop then only splices.
func BuildSet(lake *d3l.Lake, n int, opts d3l.Options) (*Set, error) {
	tables := lake.Tables()
	if k := len(tables); k > 0 && len(tables[k-1].Columns) == 0 {
		return nil, fmt.Errorf("%w: shard: the lake ends in a slot with no columns (id %d), as a removed table's is, which no shard would hold",
			d3l.ErrUnsupported, k-1)
	}
	place, err := NewPlacement(n)
	if err != nil {
		return nil, err
	}
	shards := make([]*d3l.Engine, n)
	for s := range shards {
		e, err := d3l.New(d3l.NewLake(), opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		shards[s] = e
	}
	profiled, err := shards[0].PrepareAll(tables)
	if err != nil {
		return nil, err
	}
	var at d3l.WriteIDs
	for id, tb := range tables {
		at.Table = id
		if len(tb.Columns) > 0 {
			owner := place.Owner(tb.Name)
			if _, err := shards[owner].AddProfiled(tb, profiled[id], &at); err != nil {
				return nil, fmt.Errorf("shard %d, table %q: %w", owner, tb.Name, err)
			}
		}
		at.Attr += len(tb.Columns)
	}
	return NewSet(shards, place)
}

// Placement exposes the ring (the CLI prints it; tests poke it).
func (s *Set) Placement() *Placement { return s.place }

// Shard exposes one member engine (snapshot writing, tests).
func (s *Set) Shard(i int) *d3l.Engine { return s.shards[i].e }

// PrewarmScratch forwards to every shard.
func (s *Set) PrewarmScratch(n int) {
	for _, l := range s.shards {
		l.e.PrewarmScratch(n)
	}
}

// SetStageObserver forwards to every shard: each then reports the one
// pipeline stage a shard runs, its gather; the probe and the
// coordinator's merge are not tracked stages.
func (s *Set) SetStageObserver(o d3l.StageObserver) {
	for _, l := range s.shards {
		l.e.SetStageObserver(o)
	}
}

// localShard is one in-process engine as a coordinator shard. Engine
// calls take no context where the engine's own methods take none. Its
// prepared target is profiled once, on shard 0: every shard of a set is
// built from the same options, so shard 0's profiles are every shard's.
type localShard struct{ e *d3l.Engine }

func (l localShard) prepare(t *d3l.Table, _ core.QuerySpec) (*core.Target, error) {
	return l.e.Prepare(t)
}

func (l localShard) probe(ctx context.Context, t *core.Target, spec core.QuerySpec) (*core.ShardProbe, error) {
	return l.e.ShardProbe(ctx, t, spec)
}

func (l localShard) gather(ctx context.Context, t *core.Target, spec core.QuerySpec, depths *core.ShardDepths) (*core.ShardPartial, error) {
	return l.e.ShardGather(ctx, t, spec, depths)
}

func (l localShard) explain(ctx context.Context, t *core.Target, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error) {
	return l.e.ShardExplain(ctx, t, lakeTable, spec)
}

func (l localShard) add(_ context.Context, t *d3l.Table, at d3l.WriteIDs) (int, error) {
	target, err := l.e.Prepare(t)
	if err != nil {
		return 0, err
	}
	return l.e.AddProfiled(t, target, &at)
}

func (l localShard) update(_ context.Context, t *d3l.Table, attr int) (d3l.UpdateStats, error) {
	return l.e.UpdateAt(t, attr)
}

func (l localShard) remove(_ context.Context, name string) error { return l.e.Remove(name) }

func (l localShard) tables(context.Context) ([]string, error) { return l.e.Tables(), nil }

func (l localShard) hasTable(_ context.Context, name string) error {
	if !l.e.HasTable(name) {
		return d3l.ErrTableNotFound
	}
	return nil
}

func (l localShard) slots(context.Context) (int, int, error) {
	return l.e.NumTables(), l.e.NumAttributes(), nil
}

func (l localShard) fingerprint() uint64 { return l.e.Fingerprint() }
