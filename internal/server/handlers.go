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
	"d3l/internal/core"
)

// writeBody writes a body that is already in hand, declaring its
// length: net/http chunk-encodes anything over 2 kB otherwise, and a
// reader told the length up front — the coordinator, of a gather
// partial of tens of kB — can size its buffer once instead of growing
// it by doubling.
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
	case errors.Is(err, d3l.ErrInvalidOptions) || errors.Is(err, core.ErrInvalidSpec):
		// The query routes pre-validate, so for them this is a
		// belt-and-braces mapping. The shard routes take a core spec as
		// sent and rely on it: a 500 would have a coordinator retry the
		// same bad spec on a sibling replica.
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	case errors.Is(err, d3l.ErrTableNotFound):
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, d3l.ErrDuplicateTable):
		writeError(w, http.StatusConflict, CodeConflict, err.Error())
	case errors.Is(err, d3l.ErrInvalidTableName) || errors.Is(err, d3l.ErrWriteIDs):
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
// byte-identical response without re-ranking or re-encoding. prepare,
// when not nil, runs once on a miss, before the request joins or starts
// a flight: the work only a computation needs (building the target
// tables) is not paid on a hit, and an error from it — a malformed
// request, which is never cached — is answered 400 with it.
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
func (s *Server) cachedQuery(w http.ResponseWriter, r *http.Request, key string, prepare func() error, compute func(context.Context) ([]byte, error)) {
	for {
		lookupStart := time.Now()
		body, ok := s.cache.get(key)
		s.metrics.cacheLookup.Observe(time.Since(lookupStart).Seconds())
		if ok {
			s.stats.cacheHits.Add(1)
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
		if prepare != nil {
			if err := prepare(); err != nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
				return
			}
			prepare = nil
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

// Route kinds of the ranking endpoints. The kind is folded into the
// result-cache key — the two routes render answers in different
// shapes, so they must never share an entry — and picks the response
// shape.
const (
	routeQuery = "query"
	routeBatch = "batch"
)

// handleQuery is the unified query endpoint: the full per-query option
// set of the library's Query call on the wire — k, join augmentation,
// explanation, Eq. 3 weight overrides, evidence subsets and candidate
// budgets.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveRanking(w, r, routeQuery, &req, req.Table)
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
	s.serveRanking(w, r, routeBatch, &QueryRequest{K: &k}, req.Tables...)
}

// serveRanking is the one path of the two ranking routes. Each route
// validates its own body, resolves it to the QueryRequest it means —
// the canonical form /v1/query takes on the wire; its Table is not
// read — and passes its targets alongside: one, or /v1/batch's list.
// serveRanking plans the request, keys the result cache from the route
// kind, plan, partial opt-in and targets, and on a miss builds the
// target tables, runs Query (QueryBatch for /v1/batch) under cachedQuery
// and renders the route's response.
//
// ?partial=true opts in to a degraded answer from the shards that
// answered instead of the fail-closed default. A query whose own
// deadline passes still fails whole, so no degraded answer is served
// or cached for it. Inert on a monolith.
func (s *Server) serveRanking(w http.ResponseWriter, r *http.Request, kind string, req *QueryRequest, tables ...TableJSON) {
	plan, err := req.plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	batch := kind == routeBatch
	opts := plan.opts
	partial := r.URL.Query().Get("partial") == "true"
	if partial {
		opts = append(opts, d3l.WithPartialResults())
	}
	gen, eng := s.cacheEpoch()
	var targets []*d3l.Table
	build := func() (err error) {
		targets = make([]*d3l.Table, len(tables))
		for i := range tables {
			if targets[i], err = tables[i].toTable(); err != nil {
				if batch {
					err = fmt.Errorf("tables[%d]: %v", i, err)
				}
				return err
			}
		}
		return nil
	}
	s.cachedQuery(w, r, resultKey(kind, eng.Fingerprint(), gen, plan, partial, tables), build, func(ctx context.Context) ([]byte, error) {
		if batch {
			answers, err := eng.QueryBatch(ctx, targets, opts...)
			if err != nil {
				return nil, err
			}
			return json.Marshal(renderBatch(answers))
		}
		ans, err := eng.Query(ctx, targets[0], opts...)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ans)
	})
}

// renderBatch shapes a batch's answers into the /v1/batch response
// body.
func renderBatch(answers []*d3l.Answer) BatchResponse {
	out := make([][]d3l.Result, len(answers))
	degraded := false
	for i, a := range answers {
		out[i] = a.Results
		degraded = degraded || a.Degraded
	}
	return BatchResponse{Results: out, Degraded: degraded}
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
	if (req.TableID == nil) != (req.AttrID == nil) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "tableID and attrID come together")
		return
	}
	s.serveMutation(w, r, func(e Engine) (any, error) {
		var id int
		var err error
		switch sc, ok := e.(shardCapable); {
		case req.TableID == nil:
			id, err = e.Add(t)
		case ok:
			var target *core.Target
			if target, err = sc.Prepare(t); err == nil {
				id, err = sc.AddProfiled(t, target, &d3l.WriteIDs{Table: *req.TableID, Attr: *req.AttrID})
			}
		default:
			err = errAssignedIDs
		}
		return AddTableResponse{ID: id, Name: t.Name}, err
	})
}

// serveMutation is the one path of the mutation routes: op runs under
// admitMutation, not admit — a mutation must never be abandoned
// mid-commit, since a 503 that actually committed would invite a retry
// into a spurious 409, so the handler waits for the true outcome — and
// commits through commit. op's value is the 200 body.
func (s *Server) serveMutation(w http.ResponseWriter, r *http.Request, op func(Engine) (any, error)) {
	body, err := s.admitMutation(r.Context(), func() ([]byte, error) {
		var resp any
		err := s.commit(func(e Engine) (err error) {
			resp, err = op(e)
			return err
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
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
	s.serveMutation(w, r, func(e Engine) (any, error) {
		var stats d3l.UpdateStats
		var err error
		switch sc, ok := e.(shardCapable); {
		case req.AttrID == nil:
			stats, err = e.Update(t)
		case ok:
			stats, err = sc.UpdateAt(t, *req.AttrID)
		default:
			err = errAssignedIDs
		}
		if err != nil {
			return nil, err
		}
		s.CountUpdate(stats.Reprofiled)
		return UpdateTableResponse{Updated: name, UpdateStats: stats}, nil
	})
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
	s.serveMutation(w, r, func(e Engine) (any, error) {
		return RemoveTableResponse{Removed: name}, e.Remove(name)
	})
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

// handleStatsz writes the snapshot /metrics scrapes from — one code
// path, one consistency contract (see metrics.go): counters are read
// once each, outcomes before the requests total, so no outcome can
// exceed requests within a single response.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "server is draining for shutdown")
		return
	}
	if s.cfg.LoadFunc == nil {
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
