package shard

import (
	"context"
	"fmt"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/server"
)

// Set is N in-process engine shards behind the server.Engine surface:
// the coordinator over one localShard client per engine. Ranking
// queries run the two-phase exact scatter-gather protocol and answer
// byte-identically to a monolith holding the union lake; mutations
// route to the ring owner and keep the peers' id space in lockstep with
// tombstone mirrors.
type Set struct {
	coordinator[*d3l.ShardTarget, localShard]
}

// NewSet wraps already-built engines (one per ring slot) in a Set. The
// engines must satisfy the id-lockstep discipline — BuildSet and
// LoadSet are the two constructors that guarantee it.
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

// BuildSet splits a lake across n fresh shards: every table enters
// every shard in lake-id order — the ring owner with a real Add, the
// peers with a tombstone MirrorAdd — so table and attribute ids are
// identical on all shards and to a monolith built from the same lake.
// Dead lake slots (tombstones of removed tables) are mirrored on every
// shard to preserve the id space exactly.
//
// Profiling is most of the work and depends on neither placement nor
// order (every shard has the same options, hence the same profiler), so
// the whole lake is profiled first, on opts.Parallelism workers by the
// bulk path a monolith build uses; the lockstep loop then only splices.
func BuildSet(lake *d3l.Lake, n int, opts d3l.Options) (*Set, error) {
	place, err := NewPlacement(n, 0)
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
	tables := lake.Tables()
	profiled := shards[0].PrepareShardTargets(tables)
	for id, tb := range tables {
		owner := -1
		if len(tb.Columns) > 0 {
			owner = place.Owner(tb.Name)
		}
		for s, e := range shards {
			var got int
			var err error
			if s == owner {
				got, err = e.AddProfiled(tb, profiled[id])
			} else {
				got, err = e.MirrorAdd(tb.Name, len(tb.Columns))
			}
			if err != nil {
				return nil, fmt.Errorf("shard %d, table %q: %w", s, tb.Name, err)
			}
			if got != id {
				return nil, fmt.Errorf("shard %d: table %q got id %d, want %d (id lockstep broken)", s, tb.Name, got, id)
			}
		}
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

func (l localShard) prepare(t *d3l.Table, _ core.QuerySpec) (*d3l.ShardTarget, error) {
	return l.e.PrepareShardTarget(t), nil
}

func (l localShard) probe(ctx context.Context, t *d3l.ShardTarget, spec core.QuerySpec) (*d3l.ShardProbe, error) {
	return l.e.ShardProbe(ctx, t, spec)
}

func (l localShard) gather(ctx context.Context, t *d3l.ShardTarget, spec core.QuerySpec, depths *d3l.ShardDepths) (*d3l.ShardPartial, error) {
	return l.e.ShardGather(ctx, t, spec, depths)
}

func (l localShard) explain(ctx context.Context, t *d3l.Table, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error) {
	return l.e.ShardExplain(ctx, t, lakeTable, spec)
}

func (l localShard) add(_ context.Context, t *d3l.Table) (int, error) { return l.e.Add(t) }

func (l localShard) update(_ context.Context, t *d3l.Table) (d3l.UpdateStats, error) {
	return l.e.Update(t)
}

func (l localShard) mirror(_ context.Context, m server.ShardMirrorRequest) (int, error) {
	if m.Op == "add" {
		return l.e.MirrorAdd(m.Name, m.NumCols)
	}
	return m.TableID, l.e.MirrorUpdate(m.TableID, m.NumFresh)
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
