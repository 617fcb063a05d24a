package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/server"
)

// RemoteConfig tunes the coordinator's per-shard HTTP behavior. The
// zero value of any field selects the documented default.
type RemoteConfig struct {
	// ShardTimeout bounds each HTTP attempt to one shard replica.
	// 0 selects 10s.
	ShardTimeout time.Duration
	// Retries is how many extra attempts a failed read-path call gets
	// (probe, gather, explain — mutations never retry: a retry after
	// an ambiguous failure could apply one twice). Each retry prefers a
	// different replica of the same shard. Negative means 0.
	// 0 selects 1.
	Retries int
	// RetryDelay is the base pause before a retry, doubled per
	// attempt and jittered ±25% so synchronized failures do not
	// produce a synchronized retry storm against a recovering
	// replica. A retry whose delay would outlive the request
	// deadline is not attempted: the retry budget is capped by the
	// deadline. 0 selects 50ms; negative disables the pause.
	RetryDelay time.Duration
	// HedgeAfter, when positive, launches a duplicate attempt against
	// a *different* replica of the same shard if the first has not
	// answered within this duration — the classic tail-latency hedge,
	// made useful by replica groups (a same-URL hedge only doubles
	// load on the replica that is already slow). The first answer
	// wins. 0 disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the cadence of the active health prober that
	// re-checks open-breaker replicas via GET /v1/healthz (subject to
	// each breaker's jittered backoff). 0 selects 1s; negative
	// disables active probing (recovery then rides on live-traffic
	// half-open trials only).
	ProbeInterval time.Duration
	// Breaker tunes the per-replica circuit breakers.
	Breaker BreakerConfig
	// Seed seeds the jitter RNG so fault-injection tests are
	// deterministic. 0 selects 1.
	Seed uint64
	// Client overrides the HTTP client (tests inject httptest
	// transports). nil builds a pooled default.
	Client *http.Client
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	if c.RetryDelay < 0 {
		c.RetryDelay = 0
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
			},
		}
	}
	return c
}

// maxRetryDelay caps the exponential retry backoff inside one request.
const maxRetryDelay = 2 * time.Second

// replica is one URL of one shard's replica group, with its circuit
// breaker.
type replica struct {
	url string
	br  *breaker
}

// Remote is the thin-coordinator backend: the coordinator over one
// HTTP replica group per shard, each replica a plain `d3l serve`
// process. Wrapped in server.New, it inherits the serving layer's
// result cache, admission gate and single-flight coalescing — the
// coordinator itself holds no index data.
//
// Each shard is a replica group: reads pick the healthiest
// closed-breaker replica, fail over to siblings on transient errors
// and hedge across siblings; a replica that keeps failing trips its
// breaker open and is re-admitted via jittered-backoff health probes.
// A shard is dead only when every replica of its group is open: only
// then does the coordinator's failure policy (fail closed, or drop the
// shard under d3l.WithPartialResults) see it fail.
type Remote struct {
	coordinator[*wireTarget, *replicaGroup]
	cfg RemoteConfig

	rngState      atomic.Uint64
	failovers     atomic.Uint64
	probeFailures atomic.Uint64
	hedgeWins     atomic.Uint64

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// replicaGroup is one shard's replica group as a coordinator shard.
// Reads fail over, retry and hedge across its replicas; mutations apply
// to every one of them.
type replicaGroup struct {
	r        *Remote
	shard    int
	replicas []*replica
	fp       uint64 // the engine fingerprint its replicas agreed on at construction
}

// NewRemote builds a coordinator backend over the given replica base
// URLs: one argument per shard ordinal (matching the manifest the
// replicas were built from), each a comma-separated replica group
// ("http://a:8080,http://b:8080"). Construction is fail-closed per
// group: at least one replica of every shard must answer /v1/healthz,
// and every answering replica of a shard must agree on the engine
// fingerprint (replicas serving divergent snapshots are a deployment
// error, not a runtime failure). Unreachable replicas start with
// their breaker open and are re-admitted by the active prober once
// they answer health checks.
func NewRemote(urls []string, cfg RemoteConfig) (*Remote, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least 1 shard URL")
	}
	place, err := NewPlacement(len(urls))
	if err != nil {
		return nil, err
	}
	r := &Remote{
		cfg:       cfg.withDefaults(),
		stopProbe: make(chan struct{}),
	}
	r.place = place
	r.rngState.Store(r.cfg.Seed)
	for i, spec := range urls {
		g := &replicaGroup{r: r, shard: i}
		for _, u := range strings.Split(spec, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			g.replicas = append(g.replicas, &replica{url: u, br: newBreaker(r.cfg.Breaker, time.Now, r.rnd)})
		}
		if len(g.replicas) == 0 {
			return nil, fmt.Errorf("shard %d: no replica URL in %q", i, spec)
		}
		r.shards = append(r.shards, g)
		seen := false
		for _, rep := range g.replicas {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
			var h server.HealthResponse
			err := r.doReplica(ctx, rep, http.MethodGet, "/v1/healthz", nil, &h)
			cancel()
			if err != nil {
				// Down at startup: admit the group without it; the
				// breaker opens so the prober owns its re-entry.
				rep.br.Trip()
				continue
			}
			sfp, err := strconv.ParseUint(h.EngineFingerprint, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("shard %d (%s): bad fingerprint %q", i, rep.url, h.EngineFingerprint)
			}
			if seen && sfp != g.fp {
				return nil, fmt.Errorf("shard %d: replica %s serves fingerprint %016x, its group serves %016x (divergent snapshots)",
					i, rep.url, sfp, g.fp)
			}
			g.fp, seen = sfp, true
		}
		if !seen {
			return nil, fmt.Errorf("shard %d (%s): health check: no replica reachable", i, g.label())
		}
	}
	r.timeout = r.cfg.ShardTimeout
	if r.cfg.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the active health prober. It is safe to call while
// requests are in flight — they finish normally — and safe to call
// more than once. The serving layer closes a Remote when a reload
// swaps it out.
func (r *Remote) Close() error {
	r.closeOnce.Do(func() { close(r.stopProbe) })
	r.probeWG.Wait()
	return nil
}

// NumReplicas reports the total replica count across all groups.
func (r *Remote) NumReplicas() int {
	n := 0
	for _, g := range r.shards {
		n += len(g.replicas)
	}
	return n
}

// URLs exposes the replica base URLs, one comma-joined entry per
// shard group (CLI diagnostics).
func (r *Remote) URLs() []string {
	out := make([]string, len(r.shards))
	for i, g := range r.shards {
		out[i] = g.label()
	}
	return out
}

func (g *replicaGroup) label() string {
	urls := make([]string, len(g.replicas))
	for j, rep := range g.replicas {
		urls[j] = rep.url
	}
	return strings.Join(urls, ",")
}

// ReplicaHealth implements server.ReplicaHealthReporter: the readiness
// endpoint and the d3l_replica_* metric families render from it.
func (r *Remote) ReplicaHealth() server.ReplicaHealth {
	h := server.ReplicaHealth{
		Shards:        len(r.shards),
		Failovers:     r.failovers.Load(),
		ProbeFailures: r.probeFailures.Load(),
		HedgeWins:     r.hedgeWins.Load(),
	}
	for _, g := range r.shards {
		for _, rep := range g.replicas {
			state, quarantined, _ := rep.br.Snapshot()
			s := state.String()
			if quarantined {
				s = server.ReplicaStateQuarantined
			}
			h.Replicas = append(h.Replicas, server.ReplicaStatus{
				Shard: g.shard, URL: rep.url, State: s,
			})
		}
	}
	return h
}

// rnd is a splitmix64 stream shared by every jitter draw. The
// atomic step keeps it lock-free; values are deterministic as a set
// for a given seed even though concurrent draw order is not.
func (r *Remote) rnd() uint64 {
	x := r.rngState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ---- replica selection ----

// errGroupDown marks a shard whose whole replica group is unavailable
// (every breaker open or quarantined).
var errGroupDown = errors.New("shard: all replicas unavailable")

// pick returns the healthiest available replica of the group: closed
// breakers first (lowest windowed failure rate wins), then the first
// open/half-open replica whose breaker grants a trial slot (every caller
// reports each attempt's outcome back to its breaker). exclude skips one
// replica (hedging: the duplicate must go elsewhere).
func (g *replicaGroup) pick(exclude *replica) (*replica, error) {
	type cand struct {
		rep  *replica
		rate float64
	}
	var closed []cand
	var rest []*replica
	for _, rep := range g.replicas {
		if rep == exclude {
			continue
		}
		state, quarantined, rate := rep.br.Snapshot()
		if quarantined {
			continue
		}
		if state == BreakerClosed {
			closed = append(closed, cand{rep, rate})
		} else {
			rest = append(rest, rep)
		}
	}
	sort.SliceStable(closed, func(a, b int) bool { return closed[a].rate < closed[b].rate })
	if len(closed) > 0 {
		return closed[0].rep, nil
	}
	for _, rep := range rest {
		if ok, _ := rep.br.Allow(); ok {
			return rep, nil
		}
	}
	return nil, fmt.Errorf("%w: shard %d (%s)", errGroupDown, g.shard, g.label())
}

// record reports one attempt outcome to the replica's breaker. A
// terminal (4xx) answer counts as a success — the replica is alive
// and answering; the request was at fault. An attempt abandoned
// because the *parent* request was cancelled counts as neither: the
// replica was never given a fair chance to answer.
func (rep *replica) record(ctx context.Context, err error) {
	if err == nil {
		rep.br.OnSuccess()
		return
	}
	var se *shardError
	if errors.As(err, &se) && se.terminal {
		rep.br.OnSuccess()
		return
	}
	if ctx.Err() != nil {
		rep.br.Release()
		return
	}
	rep.br.OnFailure()
}

// ---- active health probing ----

func (r *Remote) probeLoop() {
	defer r.probeWG.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopProbe:
			return
		case <-t.C:
			r.probeOnce()
		}
	}
}

// probeOnce re-checks every non-closed, non-quarantined replica whose
// breaker backoff has elapsed, plus every *closed* replica carrying a
// nonzero failure rate: passive picking deprioritizes a replica after
// its first failure, so without active probes a suspect replica's
// window would never refresh — it could neither trip (if still dead)
// nor regain rank (if healed). A probe success closes the breaker (or
// advances half-open→closed); a failure doubles the backoff. Probes
// deliberately hit /v1/healthz — wait-free on the replica — so a
// replica struggling under load is not further burdened by recovery
// checks.
func (r *Remote) probeOnce() {
	timeout := r.cfg.ShardTimeout
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	for _, g := range r.shards {
		for _, rep := range g.replicas {
			state, quarantined, rate := rep.br.Snapshot()
			if quarantined || (state == BreakerClosed && rate == 0) {
				continue
			}
			if state != BreakerClosed {
				ok, _ := rep.br.Allow()
				if !ok {
					continue // still inside backoff, or a trial is in flight
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			var h server.HealthResponse
			err := r.doReplica(ctx, rep, http.MethodGet, "/v1/healthz", nil, &h)
			cancel()
			if err != nil {
				r.probeFailures.Add(1)
				rep.br.OnFailure()
				continue
			}
			rep.br.OnSuccess()
		}
	}
}

// ---- the shard client: queries ----

// wireTarget is a query target as the replica groups send it: the table
// in wire shape, which the explain body reuses, and each phase's
// request body (spec included), marshalled once for every shard. The gather body waits for the first
// gather to ask, since only then are the depths — the same for every
// shard — known.
type wireTarget struct {
	table      server.TableJSON
	probeBody  []byte
	gatherOnce sync.Once
	gatherBody []byte
	gatherErr  error
}

func (g *replicaGroup) prepare(t *d3l.Table, spec core.QuerySpec) (*wireTarget, error) {
	w := &wireTarget{table: tableToWire(t)}
	if spec.K == 0 {
		return w, nil // an explanation only: no probe follows
	}
	var err error
	w.probeBody, err = json.Marshal(server.ShardProbeRequest{Table: w.table, Spec: spec})
	return w, err
}

func (g *replicaGroup) probe(ctx context.Context, t *wireTarget, _ core.QuerySpec) (*core.ShardProbe, error) {
	return read(ctx, g, "/v1/shard/probe", t.probeBody, decodeJSON[core.ShardProbe])
}

func (g *replicaGroup) gather(ctx context.Context, t *wireTarget, spec core.QuerySpec, depths *core.ShardDepths) (*core.ShardPartial, error) {
	t.gatherOnce.Do(func() {
		t.gatherBody, t.gatherErr = json.Marshal(server.ShardGatherRequest{Table: t.table, Spec: spec, Depths: *depths})
	})
	if t.gatherErr != nil {
		return nil, t.gatherErr
	}
	return read(ctx, g, "/v1/shard/gather", t.gatherBody, core.DecodeShardPartial)
}

func (g *replicaGroup) explain(ctx context.Context, t *wireTarget, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error) {
	body, err := json.Marshal(server.ShardExplainRequest{Table: t.table, LakeTable: lakeTable, Spec: spec})
	if err != nil {
		return nil, err
	}
	resp, err := read(ctx, g, "/v1/shard/explain", body, decodeJSON[server.ShardExplainResponse])
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// ---- the shard client: mutations ----

// Mutations and replica groups: every replica of the owner group must
// apply every write, or its engine silently diverges from its siblings.
// A write is therefore applied to each non-quarantined replica of the
// group exactly once — never retried, because a retry after an
// ambiguous network failure could double-apply. A replica whose attempt
// fails is *quarantined*: its breaker is forced open for the life of
// this Remote, so it can never serve a stale answer; POST /v1/reload
// re-polls the replicas and lifts quarantines by rebuilding coordinator
// state. The write succeeds while at least one replica applied it.

func (g *replicaGroup) add(ctx context.Context, t *d3l.Table, at d3l.WriteIDs) (int, error) {
	req := server.AddTableRequest{Table: tableToWire(t), TableID: &at.Table, AttrID: &at.Attr}
	var resp server.AddTableResponse
	err := g.apply(ctx, func(rep *replica) error {
		return g.r.doReplica(ctx, rep, http.MethodPost, "/v1/tables", req, &resp)
	})
	return resp.ID, err
}

func (g *replicaGroup) update(ctx context.Context, t *d3l.Table, attr int) (d3l.UpdateStats, error) {
	req := server.UpdateTableRequest{Table: tableToWire(t), AttrID: &attr}
	var resp server.UpdateTableResponse
	err := g.apply(ctx, func(rep *replica) error {
		return g.r.doReplica(ctx, rep, http.MethodPut, "/v1/tables/"+url.PathEscape(t.Name), req, &resp)
	})
	return resp.UpdateStats, err
}

func (g *replicaGroup) remove(ctx context.Context, name string) error {
	return g.apply(ctx, func(rep *replica) error {
		return g.r.doReplica(ctx, rep, http.MethodDelete, "/v1/tables/"+url.PathEscape(name), nil, new(server.RemoveTableResponse))
	})
}

// apply applies one mutation to every non-quarantined replica of the
// group, single-attempt each. Divergent replicas (transient failure:
// the op may or may not have landed; terminal failure after a sibling
// already applied: the op definitely diverged) are quarantined. A
// terminal error from the group's *first* attempted replica propagates
// — nothing was applied anywhere yet, so the group is still consistent
// (this is how not-found reaches the coordinator's owner rule). Fails
// closed when no replica applied.
func (g *replicaGroup) apply(ctx context.Context, fn func(rep *replica) error) error {
	applied := false
	var lastErr error
	for _, rep := range g.replicas {
		if _, quarantined, _ := rep.br.Snapshot(); quarantined {
			continue
		}
		err := fn(rep)
		if err == nil {
			applied = true
			continue
		}
		var se *shardError
		if errors.As(err, &se) && se.terminal {
			if !applied {
				return err
			}
			rep.br.ForceOpen("mutation rejected after a sibling applied it: " + err.Error())
			continue
		}
		lastErr = err
		rep.br.ForceOpen("mutation outcome ambiguous: " + err.Error())
	}
	if !applied {
		if lastErr != nil {
			return fmt.Errorf("shard %d (%s): no replica applied the mutation; last: %w", g.shard, g.label(), lastErr)
		}
		return fmt.Errorf("%w: shard %d (%s): no replica available for the mutation", errGroupDown, g.shard, g.label())
	}
	return nil
}

// ---- the shard client: introspection ----

func (g *replicaGroup) tables(ctx context.Context) ([]string, error) {
	var resp server.TablesResponse
	err := g.get(ctx, "/v1/tables", &resp)
	return resp.Tables, err
}

func (g *replicaGroup) hasTable(ctx context.Context, name string) error {
	names, err := g.tables(ctx)
	if err == nil && !slices.Contains(names, name) {
		err = d3l.ErrTableNotFound
	}
	return err
}

func (g *replicaGroup) slots(ctx context.Context) (int, int, error) {
	var resp server.StatsResponse
	err := g.get(ctx, "/v1/statsz", &resp)
	return resp.Tables, resp.Attributes, err
}

func (g *replicaGroup) fingerprint() uint64 { return g.fp }

// ---- HTTP plumbing ----

// shardError is a decoded replica error; terminal errors (4xx,
// unsupported) must not be retried or hedged over.
type shardError struct {
	err      error
	terminal bool
}

func (e *shardError) Error() string { return e.err.Error() }
func (e *shardError) Unwrap() error { return e.err }

// decodeJSON decodes a JSON read-path answer (probe, explain); the gather
// answer decodes with core.DecodeShardPartial.
func decodeJSON[T any](data []byte) (*T, error) {
	v := new(T)
	return v, json.Unmarshal(data, v)
}

// read POSTs a read-path request to the group (body, marshalled by the
// caller once for every shard it goes to) with per-replica failover,
// jittered-backoff retries and cross-replica hedging: the first
// attempt whose answer decodes wins, terminal errors return
// immediately, and exhausted attempts return the last error. The retry
// budget is capped by the request deadline: a retry whose backoff
// would outlive ctx is not attempted.
//
// decode turns a 200 body into the answer. A body it refuses — cut
// short, bit-flipped, malformed, or from a replica of another build —
// fails that attempt like a transport error: it counts against the
// replica's breaker and the next attempt goes to a sibling, so a
// replica that answers garbage can neither crash the coordinator nor
// fail a query its group can still serve.
func read[V any](ctx context.Context, g *replicaGroup, path string, body []byte, decode func([]byte) (V, error)) (V, error) {
	attempts := 1 + g.r.cfg.Retries
	delay := g.r.cfg.RetryDelay
	var zero V
	var lastErr error
	var lastRep *replica
	for a := 0; a < attempts; a++ {
		if a > 0 && delay > 0 {
			d := jitterDuration(delay, 0.5, g.r.rnd)
			if deadline, ok := ctx.Deadline(); ok && time.Now().Add(d).After(deadline) {
				return zero, lastErr // retry budget exhausted by the deadline
			}
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return zero, ctx.Err()
			case <-timer.C:
			}
			if delay *= 2; delay > maxRetryDelay {
				delay = maxRetryDelay
			}
		}
		rep, pickErr := g.pick(nil)
		if pickErr != nil {
			if lastErr != nil {
				return zero, lastErr
			}
			return zero, pickErr
		}
		if lastRep != nil && rep != lastRep {
			g.r.failovers.Add(1)
		}
		val, err := attempt(ctx, g, rep, path, body, decode)
		if err == nil {
			return val, nil
		}
		lastErr, lastRep = err, rep
		var se *shardError
		if errors.As(err, &se) && se.terminal {
			return zero, err
		}
	}
	return zero, lastErr
}

// attempt races one request against an optional hedge on a *different*
// replica of the group. Losing attempts run to completion in the
// background (their outcome still feeds their replica's breaker); the
// channel is buffered so they never leak. Each attempt decodes its own
// answer into its own value, so racing attempts share nothing.
func attempt[V any](ctx context.Context, g *replicaGroup, primary *replica, path string, body []byte, decode func([]byte) (V, error)) (V, error) {
	type result struct {
		val V
		err error
		rep *replica
	}
	var zero V
	ch := make(chan result, 2)
	run := func(rep *replica) {
		go func() {
			var val V
			data, err := g.r.doOnce(ctx, rep, http.MethodPost, path, body)
			if err == nil {
				if val, err = decode(data); err != nil {
					err = &shardError{err: fmt.Errorf("shard %s: POST %s: undecodable answer: %w", rep.url, path, err)}
				}
				bodyPool.Put(&data) // both decoders copy out every byte they keep
			}
			rep.record(ctx, err)
			ch <- result{val, err, rep}
		}()
	}
	run(primary)
	var hedgeC <-chan time.Time
	if g.r.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(g.r.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	outstanding := 1
	var hedged *replica
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			// The hedge goes to a sibling: duplicating onto the
			// replica that is already slow only doubles its load.
			if rep, err := g.pick(primary); err == nil {
				hedged = rep
				outstanding++
				run(rep)
			}
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.rep == hedged {
					g.r.hedgeWins.Add(1)
				}
				return res.val, nil
			}
			var se *shardError
			if errors.As(res.err, &se) && se.terminal {
				return zero, res.err
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				return zero, firstErr
			}
		}
	}
}

// get runs one GET against the group (listings, stats), failing over
// across replicas without retry delays.
func (g *replicaGroup) get(ctx context.Context, path string, out any) error {
	var lastErr error
	var lastRep *replica
	for range g.replicas {
		rep, err := g.pick(lastRep)
		if err != nil {
			break
		}
		data, err := g.r.doOnce(ctx, rep, http.MethodGet, path, nil)
		rep.record(ctx, err)
		if err == nil {
			return json.Unmarshal(data, out)
		}
		if lastRep != nil {
			g.r.failovers.Add(1)
		}
		lastErr, lastRep = err, rep
		var se *shardError
		if errors.As(err, &se) && se.terminal {
			return err
		}
	}
	if lastErr != nil {
		return lastErr
	}
	return fmt.Errorf("%w: shard %d (%s)", errGroupDown, g.shard, g.label())
}

// doReplica runs one single-attempt request against one specific
// replica without touching its breaker (mutations, construction health
// polls, active probes).
func (r *Remote) doReplica(ctx context.Context, rep *replica, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	data, err := r.doOnce(ctx, rep, method, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// doOnce performs one HTTP attempt under the per-shard timeout and
// maps replica error bodies back to the library's sentinel errors, so
// the coordinator's own HTTP layer re-maps them to the same status
// codes a monolith would answer.
func (r *Remote) doOnce(ctx context.Context, rep *replica, method, path string, body []byte) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, rep.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return data, nil
	}
	var eb server.ErrorBody
	msg := strings.TrimSpace(string(data))
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error.Message != "" {
		msg = eb.Error.Message
	}
	mapped := fmt.Errorf("shard %s: %s %s: %s", rep.url, method, path, msg)
	switch eb.Error.Code {
	case server.CodeNotFound:
		return nil, &shardError{err: fmt.Errorf("%w: %s", d3l.ErrTableNotFound, msg), terminal: true}
	case server.CodeConflict:
		return nil, &shardError{err: fmt.Errorf("%w: %s", d3l.ErrDuplicateTable, msg), terminal: true}
	case server.CodeBadRequest:
		return nil, &shardError{err: fmt.Errorf("%w: %s", d3l.ErrInvalidOptions, msg), terminal: true}
	case server.CodeUnsupported:
		return nil, &shardError{err: fmt.Errorf("%w: %s", d3l.ErrUnsupported, msg), terminal: true}
	}
	// Overload, timeout, draining, internal: transient from the
	// coordinator's seat — retryable on a sibling replica.
	return nil, &shardError{err: fmt.Errorf("%s (status %d)", mapped, resp.StatusCode), terminal: false}
}

// maxSizedRead bounds the buffer readBody sizes from a declared
// Content-Length: far above any gather partial (≈ 150 B a candidate
// table), far below what a lying header could otherwise make the
// coordinator allocate before a byte of body arrives.
const maxSizedRead = 64 << 20

// bodyPool recycles the buffers of read-path answers (*[]byte): the
// scatter-gather attempt hands a body back once it is decoded, so at
// steady state a gather partial is read into the buffer the previous
// query's was.
var bodyPool sync.Pool

// readBody reads a response body whole. A replica declares the length
// of every body it has in hand, so the usual read is into one buffer of
// at least that size — recycled, else allocated exactly — instead of
// io.ReadAll's growth by doubling (1.8 MB of garbage for two partials
// when they were 150 kB each); a body cut short under its declared length fails with
// io.ErrUnexpectedEOF, as it did. Chunked and implausibly long answers
// take the growing read.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > maxSizedRead {
		return io.ReadAll(resp.Body)
	}
	n := int(resp.ContentLength)
	var data []byte
	if p, _ := bodyPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		data = (*p)[:n]
	} else {
		data = make([]byte, n)
	}
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// tableToWire converts a library table to wire shape (row-major).
func tableToWire(t *d3l.Table) server.TableJSON {
	out := server.TableJSON{Name: t.Name, Columns: make([]string, len(t.Columns))}
	rows := 0
	for i, c := range t.Columns {
		out.Columns[i] = c.Name
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	out.Rows = make([][]string, rows)
	for ri := range out.Rows {
		row := make([]string, len(t.Columns))
		for ci, c := range t.Columns {
			if ri < len(c.Values) {
				row[ci] = c.Values[ri]
			}
		}
		out.Rows[ri] = row
	}
	return out
}
