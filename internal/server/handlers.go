package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"d3l"
)

// writeBody writes a body that is already in hand, declaring its
// length: net/http chunk-encodes anything over 2 kB otherwise, and a
// reader told the length up front — the coordinator, of a 150 kB gather
// partial — can size its buffer once instead of growing it by doubling.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeJSONBytes writes an already-marshaled JSON body.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	writeBody(w, status, "application/json", body)
}

// writeJSON marshals v and writes it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Response types are plain structs; this is unreachable short
		// of a programming error, but must not panic a serving process.
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSONBytes(w, status, body)
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// decodeBody parses the JSON request body into v, answering the error
// itself (400 for malformed JSON, 413 for oversized bodies) and
// reporting whether the handler should proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// writeEngineError maps an admission or engine error onto the status
// and envelope code contract pinned by the error-path tests.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errOverloaded):
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			"server at concurrency limit; retry with backoff")
	case errors.Is(err, errUnavailable):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"server is draining for shutdown")
	case errors.Is(err, errTimeout):
		writeError(w, http.StatusServiceUnavailable, CodeTimeout,
			"request exceeded the execution deadline")
	case errors.Is(err, d3l.ErrUnsupported):
		writeError(w, http.StatusNotImplemented, CodeUnsupported, err.Error())
	case errors.Is(err, d3l.ErrInvalidOptions):
		// Handlers pre-validate, so this is a belt-and-braces mapping:
		// if the library ever rejects an option set the wire check let
		// through, the client still sees a 400, not a 500.
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	case errors.Is(err, d3l.ErrTableNotFound):
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, d3l.ErrDuplicateTable):
		writeError(w, http.StatusConflict, CodeConflict, err.Error())
	case errors.Is(err, d3l.ErrInvalidTableName):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client went away while we waited; the status is written
		// for completeness (the connection is usually gone).
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "client cancelled the request")
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// cachedQuery is the shared shape of every cacheable read endpoint:
// look the key up, otherwise compute the body under the admission gate
// and store it. The marshaled body is cached, so a hit replays a
// byte-identical response without re-ranking or re-encoding.
//
// Concurrent identical misses are coalesced: the first request (the
// leader) computes under the gate, the rest wait on its flight and
// share the result — a thundering herd right after a cache purge
// burns one gate slot, not one per client. compute receives the
// leader's work context (deadline plus client cancellation); when the
// leader times out or disconnects, its computation is cancelled, the
// gate slot frees, and the flight settles with the ctx error — any
// coalesced waiter that is itself still live then retries the loop,
// becomes the new leader, and recomputes under its own deadline.
// Trading that recompute for the freed slot is deliberate: a slot held
// by doomed work starves every key, not just this one. Flights that
// never start (overload, draining, pre-start cancel) are settled by
// the would-be leader with its error, so waiters share the rejection
// instead of hanging.
func (s *Server) cachedQuery(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) ([]byte, error)) {
	for {
		lookupStart := time.Now()
		body, ok := s.cache.get(key)
		s.metrics.cacheLookup.Observe(time.Since(lookupStart).Seconds())
		if ok {
			s.stats.cacheHits.Add(1)
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			s.stats.coalesced.Add(1)
			deadline := time.NewTimer(s.cfg.RequestTimeout)
			select {
			case <-f.done:
				deadline.Stop()
			case <-deadline.C:
				s.stats.timeouts.Add(1)
				writeEngineError(w, errTimeout)
				return
			case <-r.Context().Done():
				deadline.Stop()
				writeEngineError(w, r.Context().Err())
				return
			}
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue
				}
				writeEngineError(w, f.err)
				return
			}
			writeJSONBytes(w, http.StatusOK, f.body)
			return
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()

		s.stats.cacheMisses.Add(1)
		body, started, err := s.admit(r.Context(), func(ctx context.Context) (b []byte, e error) {
			// Cache insert and flight settlement run in a defer so a
			// panicking compute still settles its waiters (with the
			// panic converted to an internal error) instead of
			// leaving them blocked until their deadlines.
			defer func() {
				if p := recover(); p != nil {
					b, e = nil, fmt.Errorf("server: panic computing response: %v", p)
				}
				if e == nil {
					s.cache.put(key, b)
				}
				f.resolve(s, key, b, e)
			}()
			return compute(ctx)
		})
		if !started {
			// The work will never run; settle the flight so waiters
			// fail fast with the same rejection.
			f.resolve(s, key, nil, err)
		}
		if err != nil {
			writeEngineError(w, err)
			return
		}
		writeJSONBytes(w, http.StatusOK, body)
		return
	}
}

// partialRequested reads the ?partial=true opt-in: the caller accepts a
// degraded answer from the shards that answered instead of the
// fail-closed default. A query whose own deadline passes still fails
// whole, so no degraded answer is served or cached for it. Inert on a
// monolith.
func partialRequested(r *http.Request) bool {
	return r.URL.Query().Get("partial") == "true"
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	k, err := requireK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	target, err := req.Table.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	partial := partialRequested(r)
	opts := []d3l.QueryOption{d3l.WithK(k)}
	if partial {
		opts = append(opts, d3l.WithPartialResults())
	}
	gen, eng := s.cacheEpoch()
	s.cachedQuery(w, r, topKKey("topk", eng.Fingerprint(), gen, k, partial, &req.Table), func(ctx context.Context) ([]byte, error) {
		ans, err := eng.Query(ctx, target, opts...)
		if err != nil {
			return nil, err
		}
		return json.Marshal(TopKResponse{Results: toResultsJSON(ans.Results), Degraded: ans.Degraded})
	})
}

func (s *Server) handleJoins(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	k, err := requireK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	target, err := req.Table.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	gen, eng := s.cacheEpoch()
	s.cachedQuery(w, r, topKKey("joins", eng.Fingerprint(), gen, k, false, &req.Table), func(ctx context.Context) ([]byte, error) {
		ans, err := eng.Query(ctx, target, d3l.WithK(k), d3l.WithJoins())
		if err != nil {
			return nil, err
		}
		return json.Marshal(JoinsResponse{Results: toAugmentedJSON(ans.Joins)})
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	k, err := requireK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if len(req.Tables) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "tables must be non-empty")
		return
	}
	targets := make([]*d3l.Table, len(req.Tables))
	for i := range req.Tables {
		t, err := req.Tables[i].toTable()
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("tables[%d]: %v", i, err))
			return
		}
		targets[i] = t
	}
	partial := partialRequested(r)
	opts := []d3l.QueryOption{d3l.WithK(k)}
	if partial {
		opts = append(opts, d3l.WithPartialResults())
	}
	gen, eng := s.cacheEpoch()
	s.cachedQuery(w, r, batchKey(eng.Fingerprint(), gen, k, partial, &req), func(ctx context.Context) ([]byte, error) {
		answers, err := eng.QueryBatch(ctx, targets, opts...)
		if err != nil {
			return nil, err
		}
		out := make([][]ResultJSON, len(answers))
		degraded := false
		for i, a := range answers {
			out[i] = toResultsJSON(a.Results)
			degraded = degraded || a.Degraded
		}
		return json.Marshal(BatchResponse{Results: out, Degraded: degraded})
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.LakeTable == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "lakeTable is required")
		return
	}
	target, err := req.Table.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	gen, eng := s.cacheEpoch()
	s.cachedQuery(w, r, explainKey(eng.Fingerprint(), gen, &req), func(ctx context.Context) ([]byte, error) {
		ans, err := eng.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor(req.LakeTable))
		if err != nil {
			return nil, err
		}
		return json.Marshal(ExplainResponse{Rows: toExplanationsJSON(ans.Explanation)})
	})
}

// handleQuery is the unified query endpoint: the full per-query option
// set of the library's Query call on the wire — k, join augmentation,
// explanation, Eq. 3 weight overrides, evidence subsets and candidate
// budgets — with responses cached under a canonical key that folds in
// every option.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	plan, err := req.plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	target, err := req.Table.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	partial := partialRequested(r)
	opts := plan.opts
	if partial {
		opts = append(opts, d3l.WithPartialResults())
	}
	gen, eng := s.cacheEpoch()
	s.cachedQuery(w, r, queryKey(eng.Fingerprint(), gen, plan, partial, &req.Table), func(ctx context.Context) ([]byte, error) {
		ans, err := eng.Query(ctx, target, opts...)
		if err != nil {
			return nil, err
		}
		resp := QueryResponse{
			Results:     toResultsJSON(ans.Results),
			Explanation: toExplanationsJSON(ans.Explanation),
			Stats: QueryStatsJSON{
				K:              ans.Stats.K,
				CandidatePairs: ans.Stats.CandidatePairs,
				TablesScored:   ans.Stats.TablesScored,
			},
			Degraded: ans.Degraded,
		}
		if ans.Joins != nil {
			resp.Joins = toAugmentedJSON(ans.Joins)
		}
		return json.Marshal(resp)
	})
}

// handleListTables answers the live table names. It reads under the
// engine's query lock only (no admission slot, no cache): the listing
// is cheap, and operators poll it to watch mutations land.
func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	names := s.Engine().Tables()
	writeJSON(w, http.StatusOK, TablesResponse{Tables: names, Count: len(names)})
}

func (s *Server) handleAddTable(w http.ResponseWriter, r *http.Request) {
	var req AddTableRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, err := req.Table.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// admitMutation, not admit: a mutation must never be abandoned
	// mid-commit — a 503 that actually committed would invite a retry
	// into a spurious 409, so the handler waits for the true outcome.
	body, err := s.admitMutation(r.Context(), func() ([]byte, error) {
		// The swap read lock pins the serving engine for the whole
		// mutation: a 200 means the table is live in the engine that
		// is (still) serving, never in one a concurrent reload just
		// retired.
		s.swapMu.RLock()
		defer s.swapMu.RUnlock()
		eng := s.Engine()
		id, err := eng.Add(t)
		if err != nil {
			return nil, err
		}
		s.stats.mutations.Add(1)
		s.cache.purge()
		return json.Marshal(AddTableResponse{ID: id, Name: t.Name})
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// handleUpdateTable is PUT /v1/tables/{name}: replace the named
// table's contents in place with delta re-profiling. The status matrix
// matches the add/DELETE envelope: 400 for a bad body or invalid name,
// 404 for an unknown table, 409 when the path and body names disagree
// (one request must not mutate a table other than the one it
// addresses).
func (s *Server) handleUpdateTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "table name is required")
		return
	}
	var req UpdateTableRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Table.Name != name {
		writeError(w, http.StatusConflict, CodeConflict,
			fmt.Sprintf("path names table %q but body names %q", name, req.Table.Name))
		return
	}
	t, err := req.Table.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	body, err := s.admitMutation(r.Context(), func() ([]byte, error) {
		s.swapMu.RLock()
		defer s.swapMu.RUnlock()
		stats, err := s.Engine().Update(t)
		if err != nil {
			return nil, err
		}
		s.stats.mutations.Add(1)
		s.CountUpdate(stats.Reprofiled)
		s.cache.purge()
		return json.Marshal(UpdateTableResponse{
			Updated:        name,
			ID:             stats.TableID,
			ReprofiledCols: stats.Reprofiled,
			KeptCols:       stats.Kept,
			AddedCols:      stats.Added,
			DroppedCols:    stats.Dropped,
		})
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// handleTableMethodNotAllowed answers any method on /v1/tables/{name}
// other than the registered PUT and DELETE with a 405 in the uniform
// envelope, Allow header included.
func (s *Server) handleTableMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", "PUT, DELETE")
	writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		fmt.Sprintf("method %s is not allowed on /v1/tables/{name}; use PUT or DELETE", r.Method))
}

func (s *Server) handleRemoveTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "table name is required")
		return
	}
	body, err := s.admitMutation(r.Context(), func() ([]byte, error) {
		s.swapMu.RLock()
		defer s.swapMu.RUnlock()
		if err := s.Engine().Remove(name); err != nil {
			return nil, err
		}
		s.stats.mutations.Add(1)
		s.cache.purge()
		return json.Marshal(RemoveTableResponse{Removed: name})
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// handleHealthz is wait-free: Fingerprint is lock-free, and nothing
// here touches the engine lock, so a probe answers instantly even
// while a large add or Compact holds the write lock — a blocked
// health check would get a healthy replica rotated out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:            "ok",
		EngineFingerprint: fmt.Sprintf("%016x", s.Engine().Fingerprint()),
	}
	status := http.StatusOK
	if s.draining.Load() {
		// Draining answers 503 so load balancers rotate this replica
		// out while in-flight queries finish.
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleStatsz renders the same snapshot /metrics scrapes from — one
// code path, one consistency contract (see metrics.go): counters are
// read once each, outcomes before the requests total, so no outcome
// can exceed requests within a single response.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	snap := s.statsSnapshot()
	writeJSON(w, http.StatusOK, StatsResponse{
		EngineFingerprint: fmt.Sprintf("%016x", snap.EngineFingerprint),
		Tables:            snap.Tables,
		Attributes:        snap.Attributes,
		Requests:          snap.Requests,
		InFlight:          snap.InFlight,
		CacheHits:         snap.CacheHits,
		CacheMisses:       snap.CacheMisses,
		Coalesced:         snap.Coalesced,
		CacheEntries:      snap.CacheEntries,
		Rejected:          snap.Rejected,
		Unavailable:       snap.Unavailable,
		Timeouts:          snap.Timeouts,
		Canceled:          snap.Canceled,
		Mutations:         snap.Mutations,
		Updates:           snap.Updates,
		UpdateDeltaCols:   snap.UpdateDeltaCols,
		Reloads:           snap.Reloads,

		PlanCacheHits:       snap.Planner.PlanCacheHits,
		PlanCacheMisses:     snap.Planner.PlanCacheMisses,
		TablesPruned:        snap.Planner.TablesPruned,
		PairsPruned:         snap.Planner.PairsPruned,
		EvidenceEvalsElided: snap.Planner.EvidenceEvalsElided,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "server is draining for shutdown")
		return
	}
	if s.cfg.SnapshotPath == "" && s.cfg.LoadFunc == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"no snapshot path configured; start the server with -index to enable reload")
		return
	}
	if err := s.Reload(); err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		Reloaded:          true,
		EngineFingerprint: fmt.Sprintf("%016x", s.Engine().Fingerprint()),
	})
}
