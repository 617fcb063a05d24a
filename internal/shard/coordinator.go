package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/server"
)

// shardClient is one shard as the coordinator drives it: an in-process
// engine (localShard) or an HTTP replica group (*replicaGroup). T is
// the client's prepared query target.
//
// A shard that does not hold a table live answers hasTable, explain,
// update and remove with an error matching d3l.ErrTableNotFound; the
// coordinator's owner rule scans past a wrong ring owner on exactly
// that error.
type shardClient[T any] interface {
	// prepare readies a target for both phases of one query, which run
	// under the same spec. The coordinator asks shard 0 only and hands
	// the result to every shard.
	prepare(t *d3l.Table, spec core.QuerySpec) (T, error)
	probe(ctx context.Context, t T, spec core.QuerySpec) (*d3l.ShardProbe, error)
	gather(ctx context.Context, t T, spec core.QuerySpec, depths *d3l.ShardDepths) (*d3l.ShardPartial, error)
	explain(ctx context.Context, t *d3l.Table, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error)

	add(ctx context.Context, t *d3l.Table) (int, error)
	update(ctx context.Context, t *d3l.Table) (d3l.UpdateStats, error)
	remove(ctx context.Context, name string) error
	// mirror applies the peer half of an add or update (see
	// server.ShardMirrorRequest) and answers the table id it concerns.
	mirror(ctx context.Context, m server.ShardMirrorRequest) (int, error)

	tables(ctx context.Context) ([]string, error)
	hasTable(ctx context.Context, name string) error
	slots(ctx context.Context) (tables, attrs int, err error)
	fingerprint() uint64
}

// coordinator is the server.Engine surface over a shard set, written
// once for Set (in-process shards) and Remote (HTTP replica groups). It
// owns placement, the exact two-phase scatter-gather, explain routing,
// the owner + mirror mutation fan-out and the listing folds, and reaches
// the shards only through their clients.
//
// mu serialises mutations against queries: a multi-shard mutation
// (owner Add + peer mirrors) must be atomic with respect to a concurrent
// scatter-gather, or a query could observe shard A with a table whose
// mirror has not landed on shard B yet and the id spaces would disagree
// mid-merge. A mutation holds it for its whole fan-out, which needs no
// deadline of its own: a Remote bounds every replica attempt by
// ShardTimeout and never retries a mutation, so at most replicas ×
// ShardTimeout. Listings and slot counts do without the lock: they read
// each shard once, and every state a mutation passes through lists and
// counts as before or after it.
type coordinator[T any, C shardClient[T]] struct {
	mu     sync.RWMutex
	place  *Placement
	shards []C
	// timeout bounds one listing or slot-count read; 0 is no bound.
	timeout time.Duration
	// muts counts the mutations applied through this coordinator, for
	// Fingerprint: a replica group's fingerprint is polled only once.
	muts atomic.Uint64
}

// NumShards reports the shard count.
func (c *coordinator[T, C]) NumShards() int { return len(c.shards) }

// Query answers one discovery query over the shards, replicating the
// monolith's d3l.Engine.Query contract — same results, same
// deterministic stats, same error shapes. WithJoins is rejected with
// d3l.ErrUnsupported (the SA-join graph spans shards).
func (c *coordinator[T, C]) Query(ctx context.Context, target *d3l.Table, opts ...d3l.QueryOption) (*d3l.Answer, error) {
	sq, err := d3l.ResolveShardQuery(opts...)
	if err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("d3l: nil target")
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.query(ctx, target, sq)
}

// QueryBatch answers one Query per target. Targets run sequentially:
// each scatter-gather already fans out across every shard, so
// cross-target concurrency would only thrash the shards' worker pools.
func (c *coordinator[T, C]) QueryBatch(ctx context.Context, targets []*d3l.Table, opts ...d3l.QueryOption) ([]*d3l.Answer, error) {
	sq, err := d3l.ResolveShardQuery(opts...)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	answers := make([]*d3l.Answer, len(targets))
	for i, tgt := range targets {
		if tgt == nil {
			return nil, fmt.Errorf("d3l: nil target")
		}
		a, err := c.query(ctx, tgt, sq)
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		answers[i] = a
	}
	return answers, nil
}

// query runs one resolved query. Caller holds c.mu in read mode.
func (c *coordinator[T, C]) query(ctx context.Context, target *d3l.Table, sq *d3l.ShardQuery) (*d3l.Answer, error) {
	start := time.Now()
	ans := &d3l.Answer{Stats: d3l.QueryStats{K: sq.K}}
	if sq.ExplainFor != "" {
		// Explanations are purely pairwise (only the spec's evidence mask
		// matters), so the owning shard alone answers exactly. Asked first,
		// it is also the monolith's pre-check: an unknown table fails
		// before any ranking work. Partial mode never applies.
		_, err := c.onOwner(sq.ExplainFor, func(s C) (err error) {
			ans.Explanation, err = s.explain(ctx, target, sq.ExplainFor, sq.Spec)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if sq.K > 0 {
		if err := c.search(ctx, target, sq, ans); err != nil {
			return nil, err
		}
	}
	ans.Stats.Elapsed = time.Since(start)
	return ans, nil
}

// search runs the two-phase protocol: prepare the target once, probe
// every shard for its per-depth candidate counts, merge them into the
// global stop depths, gather partials at those depths from the shards
// that probed, and merge the ranking into ans. Any failure fails the
// query, since a silent subset answer would break byte-identity with the
// monolith — unless it accepts partial results: then a shard whose probe
// or gather fails is dropped and the answer is marked degraded.
func (c *coordinator[T, C]) search(ctx context.Context, table *d3l.Table, sq *d3l.ShardQuery, ans *d3l.Answer) error {
	target, err := c.shards[0].prepare(table, sq.Spec)
	if err != nil {
		return err
	}
	live := make([]int, len(c.shards))
	for i := range live {
		live[i] = i
	}
	live, probes, err := phase(ctx, "probe", live, sq.PartialOK, func(i int) (*d3l.ShardProbe, error) {
		return c.shards[i].probe(ctx, target, sq.Spec)
	})
	if err != nil {
		return err
	}
	depths, err := d3l.MergeShardDepths(probes)
	if err != nil {
		return err
	}
	live, partials, err := phase(ctx, "gather", live, sq.PartialOK, func(i int) (*d3l.ShardPartial, error) {
		return c.shards[i].gather(ctx, target, sq.Spec, depths)
	})
	if err != nil {
		return err
	}
	results, stats, err := d3l.MergeShardPartials(depths, partials)
	ans.Results, ans.Degraded = results, len(live) < len(c.shards)
	ans.Stats.CandidatePairs, ans.Stats.TablesScored = stats.CandidatePairs, stats.TablesScored
	return err
}

// phase runs one protocol phase on the live shards concurrently and
// returns the shards that answered, with their answers. A failed shard
// fails the query unless it accepts partial results, and no survivor
// fails it either way. The query's own end always fails it, all or
// nothing: a shard abandoned because ctx ended did not fail, the query
// did, and whatever subset answered before then is not a degraded
// answer to serve or cache.
func phase[V any](ctx context.Context, name string, live []int, partialOK bool, call func(shard int) (V, error)) ([]int, []V, error) {
	vals := make([]V, len(live))
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for j, i := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[j], errs[j] = call(i)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	kept := live[:0]
	for j, i := range live {
		if errs[j] == nil {
			vals[len(kept)] = vals[j]
			kept = append(kept, i)
		} else if !partialOK {
			return nil, nil, fmt.Errorf("shard %d %s: %w", i, name, errs[j])
		}
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("all %d shards failed %s; first: %w", len(errs), name, errs[0])
	}
	return kept, vals[:len(kept)], nil
}

// onOwner runs op on the shard holding name live: the ring owner in
// every set this package constructs, and the others in turn only when
// the owner answers not-found, so a placement mismatch degrades to a
// slower lookup rather than a wrong "not found". It returns the shard
// that answered and op's error; not-found everywhere is the monolith's
// ErrTableNotFound.
func (c *coordinator[T, C]) onOwner(name string, op func(C) error) (int, error) {
	owner := c.place.Owner(name)
	if err := op(c.shards[owner]); !isNotFound(err) {
		return owner, err
	}
	for i, s := range c.shards {
		if i == owner {
			continue
		}
		if err := op(s); !isNotFound(err) {
			return i, err
		}
	}
	return 0, fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, name)
}

func isNotFound(err error) bool {
	return err != nil && errors.Is(err, d3l.ErrTableNotFound)
}

// bounded is a context bounded by d, or unbounded when d is 0.
func bounded(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), d)
}

// Add indexes a new table on its ring owner and mirrors the id
// consumption on every peer, verifying the lockstep invariant.
func (c *coordinator[T, C]) Add(t *d3l.Table) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("d3l: nil table")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx := context.Background()
	owner := c.place.Owner(t.Name)
	id, err := c.shards[owner].add(ctx, t)
	if err != nil {
		return 0, err
	}
	m := server.ShardMirrorRequest{Op: "add", Name: t.Name, NumCols: len(t.Columns)}
	for i, s := range c.shards {
		if i == owner {
			continue
		}
		mid, err := s.mirror(ctx, m)
		if err != nil {
			return 0, fmt.Errorf("shard %d: mirroring add of %q: %w", i, t.Name, err)
		}
		if mid != id {
			return 0, fmt.Errorf("shard %d: mirror of %q got id %d, owner got %d (id lockstep broken)", i, t.Name, mid, id)
		}
	}
	c.muts.Add(1)
	return id, nil
}

// Update re-profiles a table in place on its owning shard and mirrors
// the fresh attribute-id consumption on every peer.
func (c *coordinator[T, C]) Update(t *d3l.Table) (d3l.UpdateStats, error) {
	if t == nil {
		return d3l.UpdateStats{}, fmt.Errorf("d3l: nil table")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx := context.Background()
	var stats d3l.UpdateStats
	owner, err := c.onOwner(t.Name, func(s C) (err error) {
		stats, err = s.update(ctx, t)
		return err
	})
	if err != nil {
		return d3l.UpdateStats{}, err
	}
	m := server.ShardMirrorRequest{Op: "update", TableID: stats.TableID, NumFresh: stats.Reprofiled}
	for i, s := range c.shards {
		if i == owner {
			continue
		}
		if _, err := s.mirror(ctx, m); err != nil {
			return d3l.UpdateStats{}, fmt.Errorf("shard %d: mirroring update of %q: %w", i, t.Name, err)
		}
	}
	c.muts.Add(1)
	return stats, nil
}

// Remove tombstones a table on its owning shard. Peers hold only a dead
// mirror slot already, so no mirror op is needed — the id space cannot
// move on a remove.
func (c *coordinator[T, C]) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx := context.Background()
	if _, err := c.onOwner(name, func(s C) error { return s.remove(ctx, name) }); err != nil {
		return err
	}
	c.muts.Add(1)
	return nil
}

// Tables lists the live table names across the shards, sorted — the
// union of their disjoint live sets. A shard that cannot list fails the
// listing (nil) rather than silently shrinking it.
func (c *coordinator[T, C]) Tables() []string {
	ctx, cancel := bounded(c.timeout)
	defer cancel()
	var names []string
	for _, s := range c.shards {
		part, err := s.tables(ctx)
		if err != nil {
			return nil
		}
		names = append(names, part...)
	}
	sort.Strings(names)
	return names
}

// HasTable reports whether any shard holds the table live.
func (c *coordinator[T, C]) HasTable(name string) bool {
	ctx, cancel := bounded(c.timeout)
	defer cancel()
	_, err := c.onOwner(name, func(s C) error { return s.hasTable(ctx, name) })
	return err == nil
}

// Fingerprint folds the shards' fingerprints (order-sensitively) with
// the topology and the coordinator's mutation count, so the serving
// cache keys change when any shard's content — or the shard count —
// does. Changes made to a replica group behind the coordinator's back
// surface only through POST /v1/reload, which re-polls the replicas.
func (c *coordinator[T, C]) Fingerprint() uint64 {
	const prime = 1099511628211 // FNV-64 prime
	h := uint64(14695981039346656037)
	h = (h ^ uint64(len(c.shards))) * prime
	for _, s := range c.shards {
		h = (h ^ s.fingerprint()) * prime
	}
	return (h ^ c.muts.Load()) * prime
}

// NumTables reports the table-slot count. Id lockstep makes every
// shard's count equal to the monolith's, so shard 0 answers for all
// (0 if it cannot).
func (c *coordinator[T, C]) NumTables() int {
	tables, _ := c.slots()
	return tables
}

// NumAttributes reports the attribute-slot count (same lockstep
// argument as NumTables).
func (c *coordinator[T, C]) NumAttributes() int {
	_, attrs := c.slots()
	return attrs
}

func (c *coordinator[T, C]) slots() (tables, attrs int) {
	ctx, cancel := bounded(c.timeout)
	defer cancel()
	tables, attrs, err := c.shards[0].slots(ctx)
	if err != nil {
		return 0, 0
	}
	return tables, attrs
}
