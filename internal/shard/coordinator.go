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
	"d3l/internal/par"
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
	// prepare readies a target for every step of one query — explain,
	// probe and gather — which run under the same spec. The coordinator
	// asks shard 0 only and hands the result to every shard.
	prepare(t *d3l.Table, spec core.QuerySpec) (T, error)
	probe(ctx context.Context, t T, spec core.QuerySpec) (*core.ShardProbe, error)
	gather(ctx context.Context, t T, spec core.QuerySpec, depths *core.ShardDepths) (*core.ShardPartial, error)
	explain(ctx context.Context, t T, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error)

	// add and update write at the ids the coordinator assigned: the
	// shard fills its id space with dead slots up to them.
	add(ctx context.Context, t *d3l.Table, at d3l.WriteIDs) (int, error)
	update(ctx context.Context, t *d3l.Table, attr int) (d3l.UpdateStats, error)
	remove(ctx context.Context, name string) error

	tables(ctx context.Context) ([]string, error)
	hasTable(ctx context.Context, name string) error
	slots(ctx context.Context) (tables, attrs int, err error)
	fingerprint() uint64
}

// coordinator is the server.Engine surface over a shard set, written
// once for Set (in-process shards) and Remote (HTTP replica groups). It
// owns placement, the exact two-phase scatter-gather, explain routing,
// the id assignment and owner routing of writes, and the listing folds,
// and reaches the shards only through their clients.
//
// next is where the next write lands in the set's id space. The
// coordinator sees every write in order, so it hands out the ids a
// monolith given the same writes would assign, and each write goes to
// its owner only, carrying them.
//
// mu serialises writes against each other and against queries: a write
// landing between a query's probe and its gather would cut the new
// lake's candidates at stop depths merged from the old one. A write
// holds it for one round trip to one shard, which needs no deadline of
// its own: a Remote bounds every replica attempt by ShardTimeout and
// never retries a write, so at most replicas × ShardTimeout. Listings
// and slot counts do without it: listings read each shard once, and
// every state a write passes through lists as before or after it.
type coordinator[T any, C shardClient[T]] struct {
	mu     sync.RWMutex
	place  *Placement
	shards []C
	next   atomic.Pointer[d3l.WriteIDs] // nil until learned
	// timeout bounds one listing or slot-count read; 0 is no bound.
	timeout time.Duration
	// muts counts the mutations applied through this coordinator, for
	// Fingerprint: a replica group's fingerprint is polled only once.
	muts atomic.Uint64
}

// LearnIDs sets next, unless known, to the shards' largest slot counts:
// each id is taken by the one shard its write went to, and a failed
// write takes none. It must not run while a write through another
// coordinator over these shards may still land, so the serving layer
// calls it on adopting the coordinator, not NewRemote; without a
// server, the first write or slot-count read learns.
func (c *coordinator[T, C]) LearnIDs() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.counters()
	return err
}

// counters returns next, learning it if need be. Caller holds c.mu.
func (c *coordinator[T, C]) counters() (d3l.WriteIDs, error) {
	if p := c.next.Load(); p != nil {
		return *p, nil
	}
	ctx, cancel := bounded(c.timeout)
	defer cancel()
	var next d3l.WriteIDs
	for i, s := range c.shards {
		tables, attrs, err := s.slots(ctx)
		if err != nil {
			return next, fmt.Errorf("shard %d: slot counts: %w", i, err)
		}
		next.Table, next.Attr = max(next.Table, tables), max(next.Attr, attrs)
	}
	c.next.Store(&next)
	return next, nil
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
		a, err := c.query(ctx, tgt, sq)
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		answers[i] = a
	}
	return answers, nil
}

// query runs one resolved query: prepare the target once, on shard 0,
// then explain on the owner and search every shard over it. Caller
// holds c.mu in read mode.
func (c *coordinator[T, C]) query(ctx context.Context, table *d3l.Table, sq *d3l.ShardQuery) (*d3l.Answer, error) {
	if table == nil { // a replica group's prepare would put it on the wire
		return nil, fmt.Errorf("d3l: nil target")
	}
	start := time.Now()
	target, err := c.shards[0].prepare(table, sq.Spec)
	if err != nil {
		return nil, err
	}
	ans := &d3l.Answer{Stats: d3l.QueryStats{K: sq.K}}
	if sq.ExplainFor != "" {
		// Explanations are purely pairwise (only the spec's evidence mask
		// matters), so the owning shard alone answers exactly. Asked first,
		// it is also the monolith's pre-check: an unknown table fails
		// before any probe or gather. Partial mode never applies.
		err := c.onOwner(sq.ExplainFor, func(s C) (err error) {
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

// search runs the two-phase protocol over the prepared target: probe
// every shard for its per-depth candidate counts, merge them into the
// global stop depths, gather partials at those depths from the shards
// that probed, and merge the ranking into ans. Any failure fails the
// query, since a silent subset answer would break byte-identity with the
// monolith — unless it accepts partial results: then a shard whose probe
// or gather fails is dropped and the answer is marked degraded.
func (c *coordinator[T, C]) search(ctx context.Context, target T, sq *d3l.ShardQuery, ans *d3l.Answer) error {
	live := make([]int, len(c.shards))
	for i := range live {
		live[i] = i
	}
	live, probes, err := phase(ctx, "probe", live, sq.PartialOK, func(i int) (*core.ShardProbe, error) {
		return c.shards[i].probe(ctx, target, sq.Spec)
	})
	if err != nil {
		return err
	}
	depths, err := core.MergeProbeDepths(probes)
	if err != nil {
		return err
	}
	live, partials, err := phase(ctx, "gather", live, sq.PartialOK, func(i int) (*core.ShardPartial, error) {
		return c.shards[i].gather(ctx, target, sq.Spec, depths)
	})
	if err != nil {
		return err
	}
	results, stats, err := core.MergeShardPartials(depths, partials)
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
	// One worker per shard: every call is a round trip, all in flight at once.
	if err := par.For(ctx, len(live), len(live), nil, func(_ struct{}, j int) error {
		vals[j], errs[j] = call(live[j])
		return nil
	}); err != nil {
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
// slower lookup rather than a wrong "not found". It returns op's error;
// not-found everywhere is the monolith's ErrTableNotFound.
func (c *coordinator[T, C]) onOwner(name string, op func(C) error) error {
	owner := c.place.Owner(name)
	if err := op(c.shards[owner]); !isNotFound(err) {
		return err
	}
	for i, s := range c.shards {
		if i == owner {
			continue
		}
		if err := op(s); !isNotFound(err) {
			return err
		}
	}
	return fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, name)
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

// Add indexes a new table on its ring owner, at the next ids.
func (c *coordinator[T, C]) Add(t *d3l.Table) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("d3l: nil table")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at, err := c.counters()
	if err != nil {
		return 0, err
	}
	id, err := c.shards[c.place.Owner(t.Name)].add(context.Background(), t, at)
	if err != nil {
		return 0, c.failed(err)
	}
	c.next.Store(&d3l.WriteIDs{Table: id + 1, Attr: at.Attr + len(t.Columns)})
	c.muts.Add(1)
	return id, nil
}

// Update re-profiles a table in place on its owning shard, its fresh
// attributes taking the next attribute ids.
func (c *coordinator[T, C]) Update(t *d3l.Table) (d3l.UpdateStats, error) {
	if t == nil {
		return d3l.UpdateStats{}, fmt.Errorf("d3l: nil table")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at, err := c.counters()
	if err != nil {
		return d3l.UpdateStats{}, err
	}
	var stats d3l.UpdateStats
	err = c.onOwner(t.Name, func(s C) (err error) {
		stats, err = s.update(context.Background(), t, at.Attr)
		return err
	})
	if err != nil {
		return d3l.UpdateStats{}, c.failed(err)
	}
	c.next.Store(&d3l.WriteIDs{Table: at.Table, Attr: at.Attr + stats.Reprofiled})
	c.muts.Add(1)
	return stats, nil
}

// failed drops next after an add or update that may have landed unseen
// (any failure but a refusal), so the next write learns it again — and
// fails closed while the owner group is out of reach.
func (c *coordinator[T, C]) failed(err error) error {
	var se *shardError
	if !isNotFound(err) && (!errors.As(err, &se) || !se.terminal) {
		c.next.Store(nil)
	}
	return err
}

// Remove tombstones a table on its owning shard; ids do not move.
func (c *coordinator[T, C]) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx := context.Background()
	if err := c.onOwner(name, func(s C) error { return s.remove(ctx, name) }); err != nil {
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
	return c.onOwner(name, func(s C) error { return s.hasTable(ctx, name) }) == nil
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

// NumTables reports the table-slot count: the next table id, as a
// monolith given the same writes counts it.
func (c *coordinator[T, C]) NumTables() int { return c.slotCounts().Table }

// NumAttributes reports the attribute-slot count: the next attribute
// id.
func (c *coordinator[T, C]) NumAttributes() int { return c.slotCounts().Attr }

// slotCounts reads next, taking the lock only to learn it (0s while a
// shard cannot answer).
func (c *coordinator[T, C]) slotCounts() d3l.WriteIDs {
	if p := c.next.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next, _ := c.counters()
	return next
}
