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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d3l"
	"d3l/internal/server"
)

// RemoteConfig tunes the coordinator's per-shard HTTP behavior. The
// zero value of any field selects the documented default.
type RemoteConfig struct {
	// ShardTimeout bounds each HTTP attempt to one shard replica.
	// 0 selects 10s.
	ShardTimeout time.Duration
	// Retries is how many extra attempts a failed read-path call gets
	// (probe, gather, explain — mutations never retry: they are not
	// idempotent across the mirror fan-out). Each retry prefers a
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
	shard int
	url   string
	br    *breaker
}

// Remote is the thin-coordinator backend: it implements the
// server.Engine surface by fanning the scatter-gather protocol out
// over HTTP to remote shard replicas (each a plain `d3l serve`
// process). Wrapped in server.New, it inherits the serving layer's
// result cache, admission gate and single-flight coalescing — the
// coordinator itself holds no index data.
//
// Each shard is a replica group: reads pick the healthiest
// closed-breaker replica, fail over to siblings on transient errors
// and hedge across siblings; a replica that keeps failing trips its
// breaker open and is re-admitted via jittered-backoff health probes.
// A shard is dead only when every replica of its group is open.
//
// Failure policy: fail-closed by default — a shard group with no
// answering replica (after retries/hedging) fails the query, because
// a silent subset answer would break the byte-identity contract. A
// query carrying d3l.WithPartialResults (the HTTP layer's
// ?partial=true) instead drops dead shard *groups* and marks the
// answer Degraded; degraded answers carry no exactness guarantee.
type Remote struct {
	groups [][]*replica
	place  *Placement
	cfg    RemoteConfig
	baseFP uint64
	// muts counts coordinator-applied mutations; it folds into
	// Fingerprint so the serving cache invalidates on every mutation
	// routed through this coordinator. Out-of-band replica changes
	// are surfaced by POST /v1/reload, whose LoadFunc re-polls the
	// replicas into a fresh Remote (fresh baseFP, fresh breakers).
	muts atomic.Uint64

	rngState      atomic.Uint64
	failovers     atomic.Uint64
	probeFailures atomic.Uint64
	hedgeWins     atomic.Uint64

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
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
	place, err := NewPlacement(len(urls), 0)
	if err != nil {
		return nil, err
	}
	r := &Remote{
		groups:    make([][]*replica, len(urls)),
		place:     place,
		cfg:       cfg.withDefaults(),
		stopProbe: make(chan struct{}),
	}
	r.rngState.Store(r.cfg.Seed)
	rnd := r.rnd
	now := time.Now
	for i, spec := range urls {
		var group []*replica
		for _, u := range strings.Split(spec, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			group = append(group, &replica{shard: i, url: u, br: newBreaker(r.cfg.Breaker, now, rnd)})
		}
		if len(group) == 0 {
			return nil, fmt.Errorf("shard %d: no replica URL in %q", i, spec)
		}
		r.groups[i] = group
	}
	const prime = 1099511628211
	fp := uint64(14695981039346656037)
	fp = (fp ^ uint64(len(r.groups))) * prime
	for i, group := range r.groups {
		shardFP, seen := uint64(0), false
		for _, rep := range group {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
			var h server.HealthResponse
			err := r.getReplica(ctx, rep, "/v1/healthz", &h)
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
			if seen && sfp != shardFP {
				return nil, fmt.Errorf("shard %d: replica %s serves fingerprint %016x, its group serves %016x (divergent snapshots)",
					i, rep.url, sfp, shardFP)
			}
			shardFP, seen = sfp, true
		}
		if !seen {
			return nil, fmt.Errorf("shard %d (%s): health check: no replica reachable", i, r.groupLabel(i))
		}
		fp = (fp ^ shardFP) * prime
	}
	r.baseFP = fp
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

// NumShards reports the shard-group count.
func (r *Remote) NumShards() int { return len(r.groups) }

// NumReplicas reports the total replica count across all groups.
func (r *Remote) NumReplicas() int {
	n := 0
	for _, g := range r.groups {
		n += len(g)
	}
	return n
}

// URLs exposes the replica base URLs, one comma-joined entry per
// shard group (CLI diagnostics).
func (r *Remote) URLs() []string {
	out := make([]string, len(r.groups))
	for i := range r.groups {
		out[i] = r.groupLabel(i)
	}
	return out
}

func (r *Remote) groupLabel(i int) string {
	urls := make([]string, len(r.groups[i]))
	for j, rep := range r.groups[i] {
		urls[j] = rep.url
	}
	return strings.Join(urls, ",")
}

// ReplicaHealth implements server.ReplicaHealthReporter: the readiness
// endpoint and the d3l_replica_* metric families render from it.
func (r *Remote) ReplicaHealth() server.ReplicaHealth {
	h := server.ReplicaHealth{
		Shards:        len(r.groups),
		Failovers:     r.failovers.Load(),
		ProbeFailures: r.probeFailures.Load(),
		HedgeWins:     r.hedgeWins.Load(),
	}
	for _, group := range r.groups {
		for _, rep := range group {
			state, quarantined, _ := rep.br.Snapshot()
			s := state.String()
			if quarantined {
				s = server.ReplicaStateQuarantined
			}
			h.Replicas = append(h.Replicas, server.ReplicaStatus{
				Shard: rep.shard, URL: rep.url, State: s,
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
// (every breaker open or quarantined). It is the only condition under
// which the partial-results policy may drop a shard.
var errGroupDown = errors.New("shard: all replicas unavailable")

// pick returns the healthiest available replica of a shard group:
// closed breakers first (lowest windowed failure rate wins), then the
// first open/half-open replica whose breaker grants a trial slot.
// probe reports a granted trial, whose outcome the caller must report
// back to the breaker. exclude skips one replica (hedging: the
// duplicate must go elsewhere).
func (r *Remote) pick(shard int, exclude *replica) (rep *replica, probe bool, err error) {
	group := r.groups[shard]
	type cand struct {
		rep  *replica
		rate float64
	}
	var closed []cand
	var rest []*replica
	for _, rep := range group {
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
		return closed[0].rep, false, nil
	}
	for _, rep := range rest {
		if ok, trial := rep.br.Allow(); ok {
			return rep, trial, nil
		}
	}
	return nil, false, fmt.Errorf("%w: shard %d (%s)", errGroupDown, shard, r.groupLabel(shard))
}

// record reports one attempt outcome to a replica's breaker. A
// terminal (4xx) answer counts as a success — the replica is alive
// and answering; the request was at fault. An attempt abandoned
// because the *parent* request was cancelled counts as neither: the
// replica was never given a fair chance to answer.
func (r *Remote) record(ctx context.Context, rep *replica, err error) {
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
	for _, group := range r.groups {
		for _, rep := range group {
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
			err := r.getReplica(ctx, rep, "/v1/healthz", &h)
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

// ---- server.Engine: queries ----

// Query answers one discovery query by scatter-gather over the shard
// groups, replicating the monolith contract (see Set.Query).
func (r *Remote) Query(ctx context.Context, target *d3l.Table, opts ...d3l.QueryOption) (*d3l.Answer, error) {
	sq, err := d3l.ResolveShardQuery(opts...)
	if err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("d3l: nil target")
	}
	return r.query(ctx, target, sq)
}

func (r *Remote) query(ctx context.Context, target *d3l.Table, sq *d3l.ShardQuery) (*d3l.Answer, error) {
	start := time.Now()
	wire := tableToWire(target)
	ans := &d3l.Answer{Stats: d3l.QueryStats{K: sq.K}}
	if sq.K > 0 {
		results, stats, degraded, err := r.search(ctx, wire, sq)
		if err != nil {
			return nil, err
		}
		ans.Results = results
		ans.Stats.CandidatePairs = stats.CandidatePairs
		ans.Stats.TablesScored = stats.TablesScored
		ans.Degraded = degraded
	}
	if sq.ExplainFor != "" {
		rows, err := r.explain(ctx, wire, sq)
		if err != nil {
			return nil, err
		}
		ans.Explanation = rows
	}
	ans.Stats.Elapsed = time.Since(start)
	return ans, nil
}

// search runs the two HTTP phases. Under PartialOK a shard group that
// fails its probe (after per-replica failover and retries) is dropped
// from the query entirely; a group that probed but fails its gather is
// likewise dropped. Either drop degrades the answer. With no live
// group left the query fails even under PartialOK.
func (r *Remote) search(ctx context.Context, wire server.TableJSON, sq *d3l.ShardQuery) ([]d3l.Result, d3l.QueryStats, bool, error) {
	n := len(r.groups)
	// Every shard of a phase is sent the same bytes: one marshal a phase.
	body, err := json.Marshal(server.ShardProbeRequest{Table: wire, Spec: sq.Spec})
	if err != nil {
		return nil, d3l.QueryStats{}, false, err
	}
	probes := make([]*d3l.ShardProbe, n)
	probeErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := r.read(ctx, i, "/v1/shard/probe", body, decodeJSON[d3l.ShardProbe])
			if err != nil {
				probeErrs[i] = err
				return
			}
			probes[i] = p.(*d3l.ShardProbe)
		}(i)
	}
	wg.Wait()
	degraded := false
	live := make([]int, 0, n)
	liveProbes := make([]*d3l.ShardProbe, 0, n)
	for i := 0; i < n; i++ {
		if probeErrs[i] != nil {
			if !sq.PartialOK {
				return nil, d3l.QueryStats{}, false, fmt.Errorf("shard %d (%s) probe: %w", i, r.groupLabel(i), probeErrs[i])
			}
			degraded = true
			continue
		}
		live = append(live, i)
		liveProbes = append(liveProbes, probes[i])
	}
	if len(live) == 0 {
		return nil, d3l.QueryStats{}, false, fmt.Errorf("all %d shards failed; first: %w", n, probeErrs[0])
	}
	depths, err := d3l.MergeShardDepths(liveProbes)
	if err != nil {
		return nil, d3l.QueryStats{}, false, err
	}
	if body, err = json.Marshal(server.ShardGatherRequest{Table: wire, Spec: sq.Spec, Depths: *depths}); err != nil {
		return nil, d3l.QueryStats{}, false, err
	}
	partials := make([]*d3l.ShardPartial, len(live))
	gatherErrs := make([]error, len(live))
	for gi, i := range live {
		wg.Add(1)
		go func(gi, i int) {
			defer wg.Done()
			p, err := r.read(ctx, i, "/v1/shard/gather", body, decodePartial)
			if err != nil {
				gatherErrs[gi] = err
				return
			}
			partials[gi] = p.(*d3l.ShardPartial)
		}(gi, i)
	}
	wg.Wait()
	kept := partials[:0]
	for gi, i := range live {
		if gatherErrs[gi] != nil {
			if !sq.PartialOK {
				return nil, d3l.QueryStats{}, false, fmt.Errorf("shard %d (%s) gather: %w", i, r.groupLabel(i), gatherErrs[gi])
			}
			degraded = true
			continue
		}
		kept = append(kept, partials[gi])
	}
	if len(kept) == 0 {
		return nil, d3l.QueryStats{}, false, fmt.Errorf("all %d shards failed gather; first: %w", len(live), gatherErrs[0])
	}
	results, stats, err := d3l.MergeShardPartials(depths, kept)
	if err != nil {
		return nil, d3l.QueryStats{}, false, err
	}
	return results, stats, degraded, nil
}

// explain routes the explanation to the owning group. Partial mode
// never applies: an explanation from the wrong shard is not a
// degraded answer, it is a 404.
func (r *Remote) explain(ctx context.Context, wire server.TableJSON, sq *d3l.ShardQuery) ([]d3l.PairExplanation, error) {
	req, err := json.Marshal(server.ShardExplainRequest{Table: wire, LakeTable: sq.ExplainFor, Spec: sq.Spec})
	if err != nil {
		return nil, err
	}
	owner := r.place.Owner(sq.ExplainFor)
	resp, err := r.read(ctx, owner, "/v1/shard/explain", req, decodeJSON[server.ShardExplainResponse])
	for i := 0; err != nil && isNotFound(err) && i < len(r.groups); i++ {
		// Ring-owner miss (replica set built under a different
		// placement): scan, as Set.liveOwner does.
		if i == owner {
			continue
		}
		scanResp, scanErr := r.read(ctx, i, "/v1/shard/explain", req, decodeJSON[server.ShardExplainResponse])
		if scanErr == nil || !isNotFound(scanErr) {
			resp, err = scanResp, scanErr
		}
	}
	if err != nil {
		if isNotFound(err) {
			return nil, fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, sq.ExplainFor)
		}
		return nil, err
	}
	return resp.(*server.ShardExplainResponse).Rows, nil
}

// QueryBatch runs targets sequentially: each query already fans out
// across every shard group.
func (r *Remote) QueryBatch(ctx context.Context, targets []*d3l.Table, opts ...d3l.QueryOption) ([]*d3l.Answer, error) {
	sq, err := d3l.ResolveShardQuery(opts...)
	if err != nil {
		return nil, err
	}
	answers := make([]*d3l.Answer, len(targets))
	for i, tgt := range targets {
		if tgt == nil {
			return nil, fmt.Errorf("d3l: nil target")
		}
		a, err := r.query(ctx, tgt, sq)
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		answers[i] = a
	}
	return answers, nil
}

// ---- server.Engine: mutations ----

// Mutations and replica groups: every replica of every group must
// apply every mutation, or its engine state silently diverges from
// its siblings and the id lockstep that exactness rests on breaks.
// Mutations are therefore applied to each non-quarantined replica of
// the owner group (the real op) and of every peer group (the mirror
// op), exactly once each — never retried, because a retry after an
// ambiguous network failure could double-apply. A replica whose
// attempt fails or answers out of lockstep is *quarantined*: its
// breaker is forced open for the life of this Remote, so it can never
// serve a stale answer; POST /v1/reload re-polls the replicas and
// lifts quarantines by rebuilding coordinator state. The mutation as
// a whole succeeds while at least one replica of every group applied
// it, and fails closed otherwise.

// Add routes the real Add to the ring-owner group and mirrors the id
// consumption on every peer group.
func (r *Remote) Add(t *d3l.Table) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("d3l: nil table")
	}
	ctx, cancel := r.mutationCtx()
	defer cancel()
	owner := r.place.Owner(t.Name)
	wire := tableToWire(t)
	id, err := r.applyGroup(ctx, owner, func(rep *replica) (int, error) {
		var resp server.AddTableResponse
		err := r.doReplica(ctx, rep, http.MethodPost, "/v1/tables", server.AddTableRequest{Table: wire}, &resp)
		return resp.ID, err
	})
	if err != nil {
		return 0, err
	}
	for i := range r.groups {
		if i == owner {
			continue
		}
		mreq := server.ShardMirrorRequest{Op: "add", Name: t.Name, NumCols: len(t.Columns)}
		mid, err := r.applyGroup(ctx, i, func(rep *replica) (int, error) {
			var mresp server.ShardMirrorResponse
			err := r.doReplica(ctx, rep, http.MethodPost, "/v1/shard/mirror", mreq, &mresp)
			return mresp.ID, err
		})
		if err != nil {
			return 0, fmt.Errorf("shard %d: mirroring add of %q: %w", i, t.Name, err)
		}
		if mid != id {
			return 0, fmt.Errorf("shard %d: mirror of %q got id %d, owner got %d (id lockstep broken)", i, t.Name, mid, id)
		}
	}
	r.muts.Add(1)
	return id, nil
}

// Update routes the in-place update to the owning group, then mirrors
// the fresh attribute-id consumption on the peer groups.
func (r *Remote) Update(t *d3l.Table) (d3l.UpdateStats, error) {
	if t == nil {
		return d3l.UpdateStats{}, fmt.Errorf("d3l: nil table")
	}
	ctx, cancel := r.mutationCtx()
	defer cancel()
	wire := tableToWire(t)
	var resp server.UpdateTableResponse
	owner, err := r.mutateOwner(ctx, t.Name, func(i int) error {
		_, err := r.applyGroup(ctx, i, func(rep *replica) (int, error) {
			err := r.doReplica(ctx, rep, http.MethodPut, "/v1/tables/"+pathEscape(t.Name), server.UpdateTableRequest{Table: wire}, &resp)
			return resp.ID, err
		})
		return err
	})
	if err != nil {
		return d3l.UpdateStats{}, err
	}
	for i := range r.groups {
		if i == owner {
			continue
		}
		mreq := server.ShardMirrorRequest{Op: "update", TableID: resp.ID, NumFresh: resp.ReprofiledCols}
		if _, err := r.applyGroup(ctx, i, func(rep *replica) (int, error) {
			return 0, r.doReplica(ctx, rep, http.MethodPost, "/v1/shard/mirror", mreq, new(server.ShardMirrorResponse))
		}); err != nil {
			return d3l.UpdateStats{}, fmt.Errorf("shard %d: mirroring update of %q: %w", i, t.Name, err)
		}
	}
	r.muts.Add(1)
	return d3l.UpdateStats{
		TableID:    resp.ID,
		Reprofiled: resp.ReprofiledCols,
		Kept:       resp.KeptCols,
		Added:      resp.AddedCols,
		Dropped:    resp.DroppedCols,
	}, nil
}

// Remove tombstones the table on its owning group. Peers hold dead
// mirror slots; no mirror op is needed.
func (r *Remote) Remove(name string) error {
	ctx, cancel := r.mutationCtx()
	defer cancel()
	_, err := r.mutateOwner(ctx, name, func(i int) error {
		_, err := r.applyGroup(ctx, i, func(rep *replica) (int, error) {
			return 0, r.doReplica(ctx, rep, http.MethodDelete, "/v1/tables/"+pathEscape(name), nil, new(server.RemoveTableResponse))
		})
		return err
	})
	if err != nil {
		return err
	}
	r.muts.Add(1)
	return nil
}

// applyGroup applies one mutation to every non-quarantined replica of
// a group, single-attempt each, and returns the id the first
// successful replica answered. Divergent replicas (transient failure:
// the op may or may not have landed; terminal failure or id mismatch
// after a sibling already applied: the op definitely diverged) are
// quarantined. A terminal error from the group's *first* attempted
// replica propagates — nothing was applied anywhere yet, so the group
// is still consistent (this is how not-found reaches mutateOwner's
// placement-drift scan). Fails closed when no replica applied.
func (r *Remote) applyGroup(ctx context.Context, shard int, fn func(rep *replica) (int, error)) (int, error) {
	applied := false
	id := 0
	var lastErr error
	for _, rep := range r.groups[shard] {
		if _, quarantined, _ := rep.br.Snapshot(); quarantined {
			continue
		}
		gotID, err := fn(rep)
		if err == nil {
			if !applied {
				applied, id = true, gotID
			} else if gotID != id {
				rep.br.ForceOpen(fmt.Sprintf("mutation id lockstep broken: got %d, group got %d", gotID, id))
			}
			continue
		}
		var se *shardError
		if errors.As(err, &se) && se.terminal {
			if !applied {
				return 0, err
			}
			rep.br.ForceOpen("mutation rejected after a sibling applied it: " + err.Error())
			continue
		}
		lastErr = err
		rep.br.ForceOpen("mutation outcome ambiguous: " + err.Error())
	}
	if !applied {
		if lastErr != nil {
			return 0, fmt.Errorf("shard %d (%s): no replica applied the mutation; last: %w", shard, r.groupLabel(shard), lastErr)
		}
		return 0, fmt.Errorf("%w: shard %d (%s): no replica available for the mutation", errGroupDown, shard, r.groupLabel(shard))
	}
	return id, nil
}

// mutateOwner applies fn to the ring-owner group first, scanning the
// other groups only on a not-found answer (placement drift
// insurance).
func (r *Remote) mutateOwner(ctx context.Context, name string, fn func(i int) error) (int, error) {
	owner := r.place.Owner(name)
	err := fn(owner)
	if err == nil {
		return owner, nil
	}
	if !isNotFound(err) {
		return 0, err
	}
	for i := range r.groups {
		if i == owner {
			continue
		}
		switch scanErr := fn(i); {
		case scanErr == nil:
			return i, nil
		case !isNotFound(scanErr):
			return 0, scanErr
		}
	}
	return 0, fmt.Errorf("%w: no table %q in the lake", d3l.ErrTableNotFound, name)
}

func (r *Remote) mutationCtx() (context.Context, context.CancelFunc) {
	// One generous deadline for the whole owner+mirrors fan-out.
	return context.WithTimeout(context.Background(), time.Duration(r.NumReplicas()+1)*r.cfg.ShardTimeout)
}

// ---- server.Engine: introspection ----

// Tables lists the union of the groups' live tables, sorted.
// Fail-closed: a shard group with no answering replica makes the
// listing fail rather than silently shrink.
func (r *Remote) Tables() []string {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	var names []string
	for i := range r.groups {
		var resp server.TablesResponse
		if err := r.getShard(ctx, i, "/v1/tables", &resp); err != nil {
			return nil
		}
		names = append(names, resp.Tables...)
	}
	sort.Strings(names)
	return names
}

// HasTable asks the ring-owner group for its live listing, scanning
// on a miss.
func (r *Remote) HasTable(name string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	owner := r.place.Owner(name)
	order := []int{owner}
	for i := range r.groups {
		if i != owner {
			order = append(order, i)
		}
	}
	for _, i := range order {
		var resp server.TablesResponse
		if err := r.getShard(ctx, i, "/v1/tables", &resp); err != nil {
			continue
		}
		for _, n := range resp.Tables {
			if n == name {
				return true
			}
		}
	}
	return false
}

// Fingerprint folds the construction-time shard fingerprints with the
// coordinator's own mutation count, so the serving cache invalidates
// on every mutation routed through here. Out-of-band replica changes
// require POST /v1/reload on the coordinator (which rebuilds the
// Remote and re-polls).
func (r *Remote) Fingerprint() uint64 {
	const prime = 1099511628211
	return (r.baseFP ^ r.muts.Load()) * prime
}

// NumTables reports shard group 0's table-slot count (id lockstep
// makes all groups equal); 0 if unreachable.
func (r *Remote) NumTables() int {
	t, _ := r.statsz(0)
	return t
}

// NumAttributes reports shard group 0's attribute-slot count; 0 if
// unreachable.
func (r *Remote) NumAttributes() int {
	_, a := r.statsz(0)
	return a
}

func (r *Remote) statsz(i int) (tables, attrs int) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	var resp server.StatsResponse
	if err := r.getShard(ctx, i, "/v1/statsz", &resp); err != nil {
		return 0, 0
	}
	return resp.Tables, resp.Attributes
}

// PlannerTotals is zero, as for a Set: replicas prepare no plans and the
// merge feeds no engine's counters.
func (r *Remote) PlannerTotals() d3l.PlannerTotals { return d3l.PlannerTotals{} }

// PrewarmScratch is a no-op: the replicas own their arenas.
func (r *Remote) PrewarmScratch(int) {}

// SetStageObserver is a no-op: per-stage timings are a replica-local
// concern (each replica exports its own /metrics).
func (r *Remote) SetStageObserver(d3l.StageObserver) {}

// ---- HTTP plumbing ----

// shardError is a decoded replica error; terminal errors (4xx,
// unsupported) must not be retried or hedged over.
type shardError struct {
	err      error
	terminal bool
}

func (e *shardError) Error() string { return e.err.Error() }
func (e *shardError) Unwrap() error { return e.err }

func isNotFound(err error) bool {
	return err != nil && errors.Is(err, d3l.ErrTableNotFound)
}

func pathEscape(s string) string { return url.PathEscape(s) }

// decodeJSON decodes a JSON read-path answer (probe, explain).
func decodeJSON[T any](data []byte) (any, error) {
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// decodePartial decodes and validates the binary gather answer.
func decodePartial(data []byte) (any, error) { return d3l.DecodeShardPartial(data) }

// read POSTs a read-path request (body, marshalled by the caller once
// for every shard it goes to) with per-replica failover,
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
func (r *Remote) read(ctx context.Context, shard int, path string, body []byte, decode func([]byte) (any, error)) (any, error) {
	attempts := 1 + r.cfg.Retries
	delay := r.cfg.RetryDelay
	var lastErr error
	var lastRep *replica
	for a := 0; a < attempts; a++ {
		if a > 0 && delay > 0 {
			d := jitterDuration(delay, 0.5, r.rnd)
			if deadline, ok := ctx.Deadline(); ok && time.Now().Add(d).After(deadline) {
				return nil, lastErr // retry budget exhausted by the deadline
			}
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
			if delay *= 2; delay > maxRetryDelay {
				delay = maxRetryDelay
			}
		}
		rep, _, pickErr := r.pick(shard, nil)
		if pickErr != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, pickErr
		}
		if lastRep != nil && rep != lastRep {
			r.failovers.Add(1)
		}
		val, err := r.attempt(ctx, rep, path, body, decode)
		if err == nil {
			return val, nil
		}
		lastErr, lastRep = err, rep
		var se *shardError
		if errors.As(err, &se) && se.terminal {
			return nil, err
		}
	}
	return nil, lastErr
}

// attempt races one request against an optional hedge on a *different*
// replica of the same group. Losing attempts run to completion in the
// background (their outcome still feeds their replica's breaker); the
// channel is buffered so they never leak. Each attempt decodes its own
// answer into its own value, so racing attempts share nothing.
func (r *Remote) attempt(ctx context.Context, primary *replica, path string, body []byte, decode func([]byte) (any, error)) (any, error) {
	type result struct {
		val any
		err error
		rep *replica
	}
	ch := make(chan result, 2)
	run := func(rep *replica) {
		go func() {
			var val any
			data, err := r.doOnce(ctx, rep, http.MethodPost, path, body)
			if err == nil {
				if val, err = decode(data); err != nil {
					err = &shardError{err: fmt.Errorf("shard %s: POST %s: undecodable answer: %w", rep.url, path, err)}
				}
				bodyPool.Put(&data) // both decoders copy out every byte they keep
			}
			r.record(ctx, rep, err)
			ch <- result{val, err, rep}
		}()
	}
	run(primary)
	var hedgeC <-chan time.Time
	if r.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(r.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	outstanding := 1
	var hedged *replica
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			// The hedge goes to a sibling: duplicating onto the
			// replica that is already slow only doubles its load.
			if rep, _, err := r.pick(primary.shard, primary); err == nil {
				hedged = rep
				outstanding++
				run(rep)
			}
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.rep == hedged {
					r.hedgeWins.Add(1)
				}
				return res.val, nil
			}
			var se *shardError
			if errors.As(res.err, &se) && se.terminal {
				return nil, res.err
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		}
	}
}

// getShard runs one GET against a shard group (health, stats,
// listings), failing over across replicas without retry delays.
func (r *Remote) getShard(ctx context.Context, shard int, path string, out any) error {
	var lastErr error
	var lastRep *replica
	for range r.groups[shard] {
		rep, _, err := r.pick(shard, lastRep)
		if err != nil {
			break
		}
		data, err := r.doOnce(ctx, rep, http.MethodGet, path, nil)
		r.record(ctx, rep, err)
		if err == nil {
			return json.Unmarshal(data, out)
		}
		if lastRep != nil {
			r.failovers.Add(1)
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
	return fmt.Errorf("%w: shard %d (%s)", errGroupDown, shard, r.groupLabel(shard))
}

// getReplica runs one GET against one specific replica (construction
// health polls, active probes) without touching its breaker.
func (r *Remote) getReplica(ctx context.Context, rep *replica, path string, out any) error {
	data, err := r.doOnce(ctx, rep, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// doReplica runs one single-attempt request against one specific
// replica (mutations).
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
// io.ReadAll's growth by doubling (1.8 MB of garbage for two 150 kB
// partials); a body cut short under its declared length fails with
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
