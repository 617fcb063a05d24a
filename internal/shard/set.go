package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"d3l"
)

// Set is N in-process engine shards behind the server.Engine surface.
// Ranking queries run the two-phase exact scatter-gather protocol and
// answer byte-identically to a monolith holding the union lake;
// mutations route to the ring owner and keep the peers' id space in
// lockstep with tombstone mirrors.
//
// The Set's mutex serialises mutations against queries at the set
// level: a multi-shard mutation (owner Add + peer mirrors) must be
// atomic with respect to a concurrent scatter-gather, or a query could
// observe shard A with a table whose mirror has not landed on shard B
// yet and the id spaces would disagree mid-merge.
type Set struct {
	mu     sync.RWMutex
	place  *Placement
	shards []*d3l.Engine
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
	return &Set{place: place, shards: shards}, nil
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
	return &Set{place: place, shards: shards}, nil
}

// Placement exposes the ring (the CLI prints it; tests poke it).
func (s *Set) Placement() *Placement { return s.place }

// NumShards reports the shard count.
func (s *Set) NumShards() int { return len(s.shards) }

// Shard exposes one member engine (snapshot writing, tests).
func (s *Set) Shard(i int) *d3l.Engine { return s.shards[i] }

// liveOwner resolves the shard currently holding a table live: the
// ring owner in every set this package constructs, with a linear scan
// as insurance so a placement bug degrades to a slow lookup rather
// than a wrong "not found". Caller holds s.mu (either mode).
func (s *Set) liveOwner(name string) (int, bool) {
	o := s.place.Owner(name)
	if s.shards[o].HasTable(name) {
		return o, true
	}
	for i, e := range s.shards {
		if i != o && e.HasTable(name) {
			return i, true
		}
	}
	return 0, false
}

// Query answers one discovery query over the shard set, replicating
// the monolith's d3l.Engine.Query contract — same results, same
// deterministic stats, same error shapes. WithJoins is rejected with
// d3l.ErrUnsupported (the SA-join graph spans shards).
func (s *Set) Query(ctx context.Context, target *d3l.Table, opts ...d3l.QueryOption) (*d3l.Answer, error) {
	sq, err := d3l.ResolveShardQuery(opts...)
	if err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("d3l: nil target")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.query(ctx, target, sq)
}

// query runs one resolved query. Caller holds s.mu in read mode.
func (s *Set) query(ctx context.Context, target *d3l.Table, sq *d3l.ShardQuery) (*d3l.Answer, error) {
	var explainOwner int
	if sq.ExplainFor != "" {
		// Mirror the monolith's advisory pre-check (and its exact
		// error) before any ranking work.
		o, ok := s.liveOwner(sq.ExplainFor)
		if !ok {
			return nil, fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, sq.ExplainFor)
		}
		explainOwner = o
	}
	start := time.Now()
	ans := &d3l.Answer{Stats: d3l.QueryStats{K: sq.K}}
	if sq.K > 0 {
		results, stats, err := s.search(ctx, target, sq)
		if err != nil {
			return nil, err
		}
		ans.Results = results
		ans.Stats.CandidatePairs = stats.CandidatePairs
		ans.Stats.TablesScored = stats.TablesScored
	}
	if sq.ExplainFor != "" {
		// Explanations are purely pairwise (only the spec's evidence
		// mask matters), so the owning shard alone answers exactly.
		rows, err := s.shards[explainOwner].ShardExplain(ctx, target, sq.ExplainFor, sq.Spec)
		if err != nil {
			return nil, err
		}
		ans.Explanation = rows
	}
	ans.Stats.Elapsed = time.Since(start)
	return ans, nil
}

// search runs the two-phase protocol across all shards: profile the
// target once (every shard of a set is built from the same options, so
// shard 0's profiles are every shard's), probe every shard for its
// per-depth candidate counts, merge them into the global stop depths,
// gather partials at those depths, and merge into the final ranking.
// Phases fan out over goroutines; any shard error fails the query (an
// in-process set has no partial-failure mode — there is no network to
// degrade over).
func (s *Set) search(ctx context.Context, table *d3l.Table, sq *d3l.ShardQuery) ([]d3l.Result, d3l.QueryStats, error) {
	target := s.shards[0].PrepareShardTarget(table)
	probes := make([]*d3l.ShardProbe, len(s.shards))
	if err := s.fanOut(func(i int) error {
		p, err := s.shards[i].ShardProbe(ctx, target, sq.Spec)
		if err != nil {
			return fmt.Errorf("shard %d probe: %w", i, err)
		}
		probes[i] = p
		return nil
	}); err != nil {
		return nil, d3l.QueryStats{}, err
	}
	depths, err := d3l.MergeShardDepths(probes)
	if err != nil {
		return nil, d3l.QueryStats{}, err
	}
	partials := make([]*d3l.ShardPartial, len(s.shards))
	if err := s.fanOut(func(i int) error {
		p, err := s.shards[i].ShardGather(ctx, target, sq.Spec, depths)
		if err != nil {
			return fmt.Errorf("shard %d gather: %w", i, err)
		}
		partials[i] = p
		return nil
	}); err != nil {
		return nil, d3l.QueryStats{}, err
	}
	return d3l.MergeShardPartials(depths, partials)
}

// fanOut runs fn(i) for every shard concurrently and returns the
// first error (by shard order, for determinism).
func (s *Set) fanOut(fn func(i int) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// QueryBatch answers one Query per target. Targets run sequentially:
// each scatter-gather already fans out across every shard, so
// cross-target concurrency would only thrash the shards' worker pools.
func (s *Set) QueryBatch(ctx context.Context, targets []*d3l.Table, opts ...d3l.QueryOption) ([]*d3l.Answer, error) {
	sq, err := d3l.ResolveShardQuery(opts...)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	answers := make([]*d3l.Answer, len(targets))
	for i, tgt := range targets {
		if tgt == nil {
			return nil, fmt.Errorf("d3l: nil target")
		}
		a, err := s.query(ctx, tgt, sq)
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		answers[i] = a
	}
	return answers, nil
}

// Add indexes a new table on its ring owner and mirrors the id
// consumption on every peer, verifying the lockstep invariant.
func (s *Set) Add(t *d3l.Table) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("d3l: nil table")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	owner := s.place.Owner(t.Name)
	id, err := s.shards[owner].Add(t)
	if err != nil {
		return 0, err
	}
	for i, e := range s.shards {
		if i == owner {
			continue
		}
		mid, err := e.MirrorAdd(t.Name, len(t.Columns))
		if err != nil {
			return 0, fmt.Errorf("shard %d: mirroring add of %q: %w", i, t.Name, err)
		}
		if mid != id {
			return 0, fmt.Errorf("shard %d: mirror of %q got id %d, owner got %d (id lockstep broken)", i, t.Name, mid, id)
		}
	}
	return id, nil
}

// Update re-profiles a table in place on its owning shard and mirrors
// the fresh attribute-id consumption on every peer.
func (s *Set) Update(t *d3l.Table) (d3l.UpdateStats, error) {
	if t == nil {
		return d3l.UpdateStats{}, fmt.Errorf("d3l: nil table")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.liveOwner(t.Name)
	if !ok {
		return d3l.UpdateStats{}, fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, t.Name)
	}
	stats, err := s.shards[owner].Update(t)
	if err != nil {
		return d3l.UpdateStats{}, err
	}
	for i, e := range s.shards {
		if i == owner {
			continue
		}
		if err := e.MirrorUpdate(stats.TableID, stats.Reprofiled); err != nil {
			return d3l.UpdateStats{}, fmt.Errorf("shard %d: mirroring update of %q: %w", i, t.Name, err)
		}
	}
	return stats, nil
}

// Remove tombstones a table on its owning shard. Peers hold only a
// dead mirror slot already, so no mirror op is needed — the id space
// cannot move on a remove.
func (s *Set) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.liveOwner(name)
	if !ok {
		return fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, name)
	}
	return s.shards[owner].Remove(name)
}

// Tables lists the live table names across the set, sorted — the union
// of the shards' disjoint live sets.
func (s *Set) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	for _, e := range s.shards {
		names = append(names, e.Tables()...)
	}
	sort.Strings(names)
	return names
}

// HasTable reports whether any shard holds the table live.
func (s *Set) HasTable(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.liveOwner(name)
	return ok
}

// Fingerprint folds the shards' fingerprints (order-sensitively) with
// the topology, so the serving cache keys change when any shard's
// content — or the shard count — does.
func (s *Set) Fingerprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	const prime = 1099511628211 // FNV-64 prime
	h := uint64(14695981039346656037)
	h = (h ^ uint64(len(s.shards))) * prime
	for _, e := range s.shards {
		h = (h ^ e.Fingerprint()) * prime
	}
	return h
}

// NumTables reports the table-slot count. Id lockstep makes every
// shard's count equal to the monolith's, so shard 0 answers for all.
func (s *Set) NumTables() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[0].NumTables()
}

// NumAttributes reports the attribute-slot count (same lockstep
// argument as NumTables).
func (s *Set) NumAttributes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[0].NumAttributes()
}

// PlannerTotals is zero for a set: its engines prepare no plans (a
// shard gathers at the depths the coordinator imposes, not by a hinted
// descent), and the merge, which prunes like the monolith, belongs to no
// engine whose lifetime counters it could feed.
func (s *Set) PlannerTotals() d3l.PlannerTotals { return d3l.PlannerTotals{} }

// PrewarmScratch forwards to every shard.
func (s *Set) PrewarmScratch(n int) {
	for _, e := range s.shards {
		e.PrewarmScratch(n)
	}
}

// SetStageObserver forwards to every shard: each then reports the one
// pipeline stage a shard runs, its gather; the probe and the
// coordinator's merge are not tracked stages.
func (s *Set) SetStageObserver(o d3l.StageObserver) {
	for _, e := range s.shards {
		e.SetStageObserver(o)
	}
}
