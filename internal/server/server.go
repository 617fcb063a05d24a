// Package server is the HTTP serving subsystem over a d3l.Engine: the
// layer that turns the library's concurrent query primitives into a
// production service. It adds the behaviors a long-running,
// heavily-trafficked process needs and the library deliberately does
// not provide:
//
//   - a JSON API: /v1/query, the one single-target ranking route, with
//     the full per-query option set; /v1/batch for many targets at one
//     k; /v1/tables for listing and incremental maintenance;
//     /v1/healthz, /v1/readyz, /v1/statsz, /v1/reload and /metrics;
//   - an LRU result cache keyed by a canonical query fingerprint that
//     embeds the engine fingerprint, so mutations invalidate by
//     construction;
//   - a bounded-concurrency admission gate with true deadline
//     enforcement — overload answers 429; a request that exceeds its
//     deadline or whose client disconnects answers 503 AND has its
//     computation cancelled through the engine's cooperative
//     context plumbing, so the worker exits and the admission slot
//     frees immediately instead of carrying doomed work to
//     completion;
//   - graceful shutdown that drains in-flight queries while rejecting
//     new ones with 503;
//   - hot snapshot reload (endpoint- or SIGHUP-triggered via the CLI)
//     that atomically swaps engines under traffic.
//
// Every future scaling layer (shards, replicas) fronts the same API.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"d3l"
	"d3l/internal/core"
)

// Engine is the serving abstraction the HTTP layer runs over: the
// query, mutation and introspection surface shared by the monolithic
// *d3l.Engine and the sharded sets (internal/shard). Everything the
// handlers, the cache keys and the stats snapshot need lives here; the
// sharded implementations answer ranking queries byte-identically to
// the monolith, so the serving layer cannot tell them apart.
type Engine interface {
	Query(ctx context.Context, target *d3l.Table, opts ...d3l.QueryOption) (*d3l.Answer, error)
	QueryBatch(ctx context.Context, targets []*d3l.Table, opts ...d3l.QueryOption) ([]*d3l.Answer, error)
	Add(t *d3l.Table) (int, error)
	Update(t *d3l.Table) (d3l.UpdateStats, error)
	Remove(name string) error
	Tables() []string
	HasTable(name string) bool
	Fingerprint() uint64
	NumTables() int
	NumAttributes() int
}

// engineBox wraps the serving Engine for atomic.Pointer, which needs
// one concrete type (interface values with differing dynamic types
// cannot go through atomic.Value).
type engineBox struct{ e Engine }

// Config tunes a Server. The zero value of any field selects the
// documented default.
type Config struct {
	// MaxConcurrent bounds how many queries and mutations execute at
	// once — the admission gate capacity. Requests beyond it wait up
	// to AdmissionWait for a slot and are then rejected with 429.
	// 0 selects 2×GOMAXPROCS.
	MaxConcurrent int
	// AdmissionWait is how long a request may wait for a gate slot
	// before 429. 0 selects 100ms; negative means reject immediately.
	AdmissionWait time.Duration
	// RequestTimeout is the per-request execution deadline; a query
	// still running when it expires answers 503 (code "timeout").
	// 0 selects 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size; larger bodies answer 413.
	// 0 selects 32 MiB.
	MaxBodyBytes int64
	// CacheEntries is the LRU result-cache capacity in entries.
	// 0 selects 1024; negative disables caching.
	CacheEntries int
	// LoadFunc, when set, enables hot reload: POST /v1/reload (and
	// SIGHUP in the CLI) calls it and atomically swaps in whatever
	// engine it returns. A monolith re-reads its snapshot, a shard set
	// its manifest, a coordinator re-polls its replicas. The loader
	// applies the serving host's own settings, parallelism among them:
	// a snapshot carries none.
	LoadFunc func() (Engine, error)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 100 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	return c
}

// stats aggregates the serving counters behind /v1/statsz.
type stats struct {
	requests    atomic.Int64
	inFlight    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64
	rejected    atomic.Int64
	unavailable atomic.Int64
	timeouts    atomic.Int64
	canceled    atomic.Int64
	mutations   atomic.Int64
	reloads     atomic.Int64
	// updates counts acknowledged in-place table updates (a subset of
	// mutations); updateDeltaCols accumulates how many columns those
	// updates actually re-profiled — the delta that makes the
	// incremental path observable (updates with a low column delta are
	// the cheap ones).
	updates         atomic.Int64
	updateDeltaCols atomic.Int64
}

// Server serves a d3l.Engine over HTTP. Create one with New; it
// implements http.Handler. All methods are safe for concurrent use.
type Server struct {
	cfg    Config
	engine atomic.Pointer[engineBox]
	cache  *resultCache
	// shardTargets is the shard replica's memo of prepared targets
	// (see shard_handlers.go).
	shardTargets *lruCache[*core.Target]
	gate         chan struct{}
	stats        stats
	metrics      *serverMetrics
	mux          *http.ServeMux

	draining atomic.Bool
	inflight sync.WaitGroup // gated work only (queries and mutations)

	// drainMu makes (draining check, inflight.Add) atomic against
	// BeginShutdown: register holds it in read mode, BeginShutdown
	// flips draining under the write mode. Without it, a request could
	// pass the draining check, Shutdown's inflight.Wait could observe
	// a zero counter and return, and only then would the request
	// register and run — after the "drain" completed.
	drainMu sync.RWMutex

	// swapGen counts engine swaps and is folded into every cache key:
	// a query in flight across a reload stores its response under the
	// pre-swap generation, so even a new engine with an identical
	// fingerprint (same snapshot rebuilt from edited cell data, say —
	// the fingerprint hashes identity, not contents) can never hit a
	// pre-swap entry.
	swapGen atomic.Uint64

	// swapMu serialises mutations against engine swaps. Queries
	// deliberately tolerate racing a swap (their answer is keyed to
	// the engine they loaded), but a mutation must not: an Add
	// acknowledged with 200 that landed on a just-discarded engine
	// would be a silently lost write. Mutations hold swapMu in read
	// mode around (load engine, mutate); Swap holds it in write mode,
	// so every acknowledged mutation either completed on the serving
	// engine before the swap or starts after and lands on the new one.
	swapMu sync.RWMutex

	// flights coalesces concurrent identical cache misses: the first
	// request computes, the rest wait for its result instead of
	// burning gate slots on duplicate work (see cachedQuery).
	flightMu sync.Mutex
	flights  map[string]*flight

	// reloadMu serialises engine reloads: concurrent reload requests
	// would otherwise race to swap, and the loser's engine — possibly
	// the newer snapshot — could be overwritten by the winner's.
	reloadMu sync.Mutex
}

// flight is one in-progress computation of a cacheable response; done
// closes once body/err are set. resolve is idempotent: either the
// compute goroutine (which may outlive its leader's request) or the
// leader (when the work was never started) settles the flight, and
// only the first settlement counts.
type flight struct {
	done chan struct{}
	body []byte
	err  error
	once sync.Once
}

func (f *flight) resolve(s *Server, key string, body []byte, err error) {
	f.once.Do(func() {
		f.body, f.err = body, err
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	})
}

// New returns a server over the engine. The engine must not be nil.
func New(engine Engine, cfg Config) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	cfg = cfg.withDefaults()
	if cfg.MaxConcurrent < 1 {
		return nil, fmt.Errorf("server: MaxConcurrent must be positive, got %d", cfg.MaxConcurrent)
	}
	// Negative AdmissionWait (reject immediately) and CacheEntries
	// (caching disabled) have documented meanings; a negative deadline
	// or body cap would just reject every request.
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: RequestTimeout must be positive, got %v", cfg.RequestTimeout)
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("server: MaxBodyBytes must be positive, got %d", cfg.MaxBodyBytes)
	}
	s := &Server{
		cfg:          cfg,
		cache:        newResultCache(cfg.CacheEntries),
		shardTargets: newLRUCache[*core.Target](shardTargetMemoEntries(cfg.MaxConcurrent)),
		gate:         make(chan struct{}, cfg.MaxConcurrent),
		flights:      make(map[string]*flight),
		mux:          http.NewServeMux(),
	}
	s.metrics = newServerMetrics(s)
	s.adopt(engine)
	s.engine.Store(&engineBox{e: engine})
	s.routes()
	return s, nil
}

// adopt readies an engine for traffic through the optional hooks it
// offers, type-asserted like ReplicaHealthReporter: a monolithic
// *d3l.Engine offers the first two, a shard set all three, a
// coordinator over HTTP replicas only the last.
func (s *Server) adopt(engine Engine) {
	// The admission gate bounds concurrent queries, which in turn
	// bounds the engine's pooled query arenas in flight: prewarming one
	// arena set per slot means admitted work reuses recycled scratch
	// from the first request on, keeping the steady-state query path
	// allocation-free across requests (and a freshly swapped-in engine
	// from reintroducing allocation churn under live traffic).
	if p, ok := engine.(interface{ PrewarmScratch(n int) }); ok {
		p.PrewarmScratch(s.cfg.MaxConcurrent)
	}
	// Stage timings must keep flowing across a swap: the observer is
	// per-engine state, so every engine gets its own registration.
	if o, ok := engine.(interface{ SetStageObserver(o d3l.StageObserver) }); ok {
		o.SetStageObserver(s.metrics.observeCoreStage)
	}
	// A coordinator learns its set's write ids here, where Swap has
	// waited out every write through the engine it replaces; on a
	// failure its first write learns them.
	if l, ok := engine.(interface{ LearnIDs() error }); ok {
		l.LearnIDs()
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/tables", s.handleListTables)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/tables", s.handleAddTable)
	s.mux.HandleFunc("PUT /v1/tables/{name}", s.handleUpdateTable)
	s.mux.HandleFunc("DELETE /v1/tables/{name}", s.handleRemoveTable)
	// Method-less fallback for the per-table resource: a method other
	// than PUT/DELETE answers 405 with the uniform envelope and an
	// Allow header instead of the catch-all 404 (the resource exists;
	// the method is what is wrong).
	s.mux.HandleFunc("/v1/tables/{name}", s.handleTableMethodNotAllowed)
	// Shard replica protocol (see shard_handlers.go): probe and gather
	// are the two phases of a coordinator's scatter-gather query.
	s.mux.HandleFunc("POST /v1/shard/probe", s.handleShardProbe)
	s.mux.HandleFunc("POST /v1/shard/gather", s.handleShardGather)
	s.mux.HandleFunc("POST /v1/shard/explain", s.handleShardExplain)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such route: "+r.URL.Path)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Engine returns the currently serving engine. Handlers load it once
// per request, so a concurrent swap never changes the engine mid-query.
func (s *Server) Engine() Engine { return s.engine.Load().e }

// cacheEpoch reads the cache-key generation and the engine, in that
// order. The order pairs with Swap's (store engine, then bump
// generation): a request that obtained the old engine necessarily
// read the old generation too, so its late cache insert can never be
// keyed where post-swap readers look.
func (s *Server) cacheEpoch() (uint64, Engine) {
	gen := s.swapGen.Load()
	return gen, s.engine.Load().e
}

// Swap atomically replaces the serving engine, advances the cache-key
// generation and purges the result cache. In-flight requests finish
// against the engine they started with; requests admitted after Swap
// see only the new one. Ordering matters: the engine is stored before
// the generation advances, so a request that read the old generation
// read it before the swap and can only have loaded the old engine —
// its late cache insert lands under the old generation, unreachable
// by post-swap readers.
func (s *Server) Swap(engine Engine) error {
	if engine == nil {
		return fmt.Errorf("server: nil engine")
	}
	// The write lock waits out in-flight mutations (which hold the
	// read side), so no acknowledged Add/Remove lands on the engine
	// being retired.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.adopt(engine)
	old := s.engine.Load()
	s.engine.Store(&engineBox{e: engine})
	s.swapGen.Add(1)
	s.cache.purge()
	s.shardTargets.purge()
	// A retired engine that owns background resources (the
	// coordinator backend runs a health prober) is closed once it is
	// out of the serving slot. Close is defined to be safe concurrent
	// with the in-flight requests still finishing against it: it only
	// stops background work, never the request path.
	if old != nil && old.e != engine {
		if c, ok := old.e.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	return nil
}

// Reload calls the configured loader and swaps its engine in — the
// hot-reload path behind POST /v1/reload and the CLI's SIGHUP handler.
// The old engine keeps serving until the new one is fully loaded; a
// load failure leaves it serving untouched.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.cfg.LoadFunc == nil {
		return fmt.Errorf("server: no load func configured for reload")
	}
	engine, err := s.cfg.LoadFunc()
	if err != nil {
		return fmt.Errorf("server: reload: %w", err)
	}
	if err := s.Swap(engine); err != nil {
		return err
	}
	s.stats.reloads.Add(1)
	return nil
}

// MutateEngine runs fn against the serving engine under the same
// contract as the HTTP mutation handlers: the swap read lock pins the
// engine for the whole mutation (no acknowledged write lands on a
// just-retired engine), the shutdown drain waits for it, and a
// successful fn bumps the mutation counter and purges the result
// cache. It is the programmatic mutation entry point for in-process
// drivers — the watch-mode reconciler folds filesystem deltas through
// it. A draining server rejects with errUnavailable (503 semantics)
// without running fn.
func (s *Server) MutateEngine(fn func(Engine) error) error {
	if !s.register() {
		s.stats.unavailable.Add(1)
		return errUnavailable
	}
	defer s.inflight.Done()
	return s.commit(fn)
}

// commit is the one commit path of every mutation, HTTP or in-process:
// under the swap read lock, which pins the serving engine for the whole
// mutation (a 200 means the write is live in the engine that is still
// serving, never in one a concurrent reload just retired), it runs op
// on the serving engine and, when op succeeds, bumps the mutation
// counter and purges the result cache. Admission is the caller's.
func (s *Server) commit(op func(Engine) error) error {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	if err := op(s.Engine()); err != nil {
		return err
	}
	s.stats.mutations.Add(1)
	s.cache.purge()
	return nil
}

// CountUpdate folds one acknowledged in-place update into the serving
// counters: the updates total and the re-profiled-column delta. The
// watch reconciler calls it next to MutateEngine; the HTTP PUT handler
// counts inline.
func (s *Server) CountUpdate(reprofiledCols int) {
	s.stats.updates.Add(1)
	s.stats.updateDeltaCols.Add(int64(reprofiledCols))
}

// BeginShutdown puts the server into draining mode: health checks
// flip to 503 so load balancers stop routing here, and new queries
// and mutations are rejected with 503 while in-flight ones run to
// completion. Shutdown waits for the drain. The write lock excludes
// register, so once BeginShutdown returns, every admitted request is
// either registered with the inflight WaitGroup or will observe
// draining and reject itself.
func (s *Server) BeginShutdown() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
}

// register atomically re-checks draining and joins the inflight
// WaitGroup. It reports false when the server is draining, in which
// case the caller must not run the work (and owes no Done).
func (s *Server) register() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the server: it stops admitting work and waits until
// every in-flight query and mutation has finished or ctx expires,
// whichever comes first. Pair it with http.Server.Shutdown, which
// drains connections; this drains the detached query goroutines that
// may outlive their requests after a timeout.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginShutdown()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown drain: %w", ctx.Err())
	}
}

// Sentinel errors produced by the admission path; handlers map them
// onto status codes and envelope codes.
var (
	errOverloaded  = errors.New("server: admission gate full")
	errUnavailable = errors.New("server: draining")
	errTimeout     = errors.New("server: request deadline exceeded")
)

// admit runs fn under the concurrency gate with the per-request
// execution deadline. It returns fn's result, whether fn was actually
// started, and an error: errOverloaded (no slot within
// AdmissionWait), errUnavailable (draining), errTimeout (deadline
// passed while fn ran), or the request context's error. started=false
// guarantees fn never ran and never will.
//
// fn receives a context that expires at the request deadline and is
// cancelled when the client disconnects. The engine's query pipeline
// checks it cooperatively between candidate batches, so a timed-out
// or abandoned request's worker exits within microseconds, returns
// its ctx error, and — crucially — frees its admission slot
// immediately. Under deadline pressure the gate therefore keeps
// admitting live work instead of filling up with doomed computations
// (the pre-cancellation design held each slot until the abandoned
// work ran to completion, a real throughput hole).
func (s *Server) admit(ctx context.Context, fn func(context.Context) ([]byte, error)) (body []byte, started bool, err error) {
	return s.admitWork(ctx, fn, true)
}

// admitMutation is admit without abandonment or cancellation: once the
// mutation starts, the handler waits for it to finish however long it
// takes, so the response always reflects the true final state. A 503
// or 429 from this path guarantees nothing ran — a timeout-shaped
// "failure" that actually committed (inviting a retry into a spurious
// 409) cannot happen; by the same token a mutation must never be
// cancelled mid-commit, so its work runs on an uncancellable context.
// The work is bounded by the mutation itself, and the shutdown drain
// waits for it like any other registered work.
func (s *Server) admitMutation(ctx context.Context, fn func() ([]byte, error)) ([]byte, error) {
	body, _, err := s.admitWork(ctx, func(context.Context) ([]byte, error) { return fn() }, false)
	return body, err
}

func (s *Server) admitWork(ctx context.Context, fn func(context.Context) ([]byte, error), abandonable bool) ([]byte, bool, error) {
	if s.draining.Load() {
		s.stats.unavailable.Add(1)
		return nil, false, errUnavailable
	}
	// The admission_wait stage spans every exit of the gate: the
	// uncontended fast path (sub-microsecond), a queued wait that won a
	// slot, and waits that ended in rejection or client cancellation —
	// so the histogram's upper quantiles surface queueing pressure
	// before the 429 counter moves.
	admitStart := time.Now()
	select {
	case s.gate <- struct{}{}:
	default:
		if s.cfg.AdmissionWait <= 0 {
			s.metrics.admissionWait.Observe(time.Since(admitStart).Seconds())
			s.stats.rejected.Add(1)
			return nil, false, errOverloaded
		}
		wait := time.NewTimer(s.cfg.AdmissionWait)
		defer wait.Stop()
		select {
		case s.gate <- struct{}{}:
		case <-wait.C:
			s.metrics.admissionWait.Observe(time.Since(admitStart).Seconds())
			s.stats.rejected.Add(1)
			return nil, false, errOverloaded
		case <-ctx.Done():
			s.metrics.admissionWait.Observe(time.Since(admitStart).Seconds())
			return nil, false, ctx.Err()
		}
	}
	s.metrics.admissionWait.Observe(time.Since(admitStart).Seconds())
	// Re-check after acquiring: BeginShutdown may have landed while we
	// waited, and draining must win over a just-freed slot. register
	// couples the check to the WaitGroup join so Shutdown's Wait can
	// never slip between them.
	if !s.register() {
		<-s.gate
		s.stats.unavailable.Add(1)
		return nil, false, errUnavailable
	}

	// The work context: for queries it carries the execution deadline
	// and the client's own cancellation; for mutations it is
	// uncancellable (values flow through, cancellation does not), so
	// an acknowledged Add/Remove can never be torn mid-commit.
	workCtx := context.WithoutCancel(ctx)
	cancel := context.CancelFunc(func() {})
	if abandonable {
		workCtx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}

	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	s.stats.inFlight.Add(1)
	go func() {
		defer func() {
			cancel()
			<-s.gate
			s.stats.inFlight.Add(-1)
			s.inflight.Done()
		}()
		// A panic in engine code must fail this one request with a
		// 500, not crash the serving process: the work runs outside
		// the net/http handler goroutine, so nothing else would
		// recover it. (done is buffered, so the send cannot block.)
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{nil, fmt.Errorf("server: panic in request worker: %v", p)}
			}
		}()
		body, err := fn(workCtx)
		done <- outcome{body, err}
	}()

	if !abandonable {
		out := <-done
		return out.body, true, out.err
	}
	select {
	case out := <-done:
		return out.body, true, out.err
	case <-workCtx.Done():
		// The worker's defer cancels workCtx after delivering its
		// outcome, so for a fast computation both channels can be
		// ready when this select runs and Go picks at random: a
		// finished request must never be misreported as a timeout.
		// Draining done here resolves the race in favour of the real
		// outcome (and resolves a completion that genuinely ties with
		// the deadline the same way). A drained outcome that is
		// itself a context error is the worker's cooperative
		// cancellation exit, not a result — classify it below like
		// any other expiry.
		select {
		case out := <-done:
			if !errors.Is(out.err, context.Canceled) && !errors.Is(out.err, context.DeadlineExceeded) {
				return out.body, true, out.err
			}
		default:
		}
		// The deadline passed or the client went away. workCtx is
		// already cancelled, so the worker observes it at its next
		// cooperative checkpoint, exits, and releases the gate slot —
		// the response does not wait for that. Distinguish the two
		// causes for the status code: a parent-context error is the
		// client's doing, everything else is the deadline.
		if err := ctx.Err(); err != nil {
			s.stats.canceled.Add(1)
			return nil, true, err
		}
		s.stats.timeouts.Add(1)
		return nil, true, errTimeout
	}
}
