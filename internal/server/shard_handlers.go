package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"d3l"
	"d3l/internal/core"
)

// The shard replica endpoints. A `d3l serve` process whose engine is a
// monolithic *d3l.Engine doubles as one shard replica of a distributed
// set: the thin coordinator (`d3l coordinator`, internal/shard.Remote)
// drives the two-phase scatter-gather protocol through POST
// /v1/shard/probe and /v1/shard/gather, and routes an explanation to
// the owning shard through POST /v1/shard/explain. Writes take the
// ordinary table routes; the coordinator sends each one to its owner
// only, with the ids it assigned the write in the request body
// (AddTableRequest), so the replica holds its tables under the
// monolith's ids.
//
// The endpoints are admission-gated like every other query and
// mutation, but deliberately uncached: a probe or gather answer is an
// intermediate of one coordinator query, and the coordinator caches
// the merged final answer under its own fingerprint-keyed cache, so a
// replica-side cache would only hold bytes no client can ever hit
// twice (the gather body varies with the globally merged depths).
//
// What a replica does keep between the steps of a query is the
// prepared target: preparing (profiling, ~0.9 ms) is the one piece of
// work explain, probe and gather share, and the steps of a query follow
// each other by milliseconds. All three routes resolve their target
// through a small LRU memo keyed by the SHA-256 of the target content:
// the first step to arrive prepares the target and leaves it there, and
// the next finds it and skips both the row-to-column conversion and the
// profiling pass. A miss — a step failed over or hedged to a replica
// that never saw the earlier one, the process restarted, the entry aged
// out — just prepares again, so the memo can only save work, never
// change an answer: a prepared target is a pure function of the table
// and the engine's immutable options. The key carries the swap
// generation and Swap purges, so targets never cross engines.
//
// Probe and explain answers, and every error, are JSON. The gather
// answer — a few thousand rows and the counts of the Eq. 2
// distributions — is the binary form of core.EncodeShardPartial under
// shardPartialContentType. Every answer is complete before its first
// byte is written and declares its Content-Length (writeBody), which is
// what lets the coordinator read a partial of tens of kB into one
// buffer of that size.

// shardPartialContentType labels the binary gather answer.
const shardPartialContentType = "application/vnd.d3l.shard-partial"

// shardTargetMemoEntries sizes the prepared-target memo from the
// admission capacity: a slot for every step the gate can be running
// and one more for each step of the same query that may still be on its
// way.
func shardTargetMemoEntries(maxConcurrent int) int { return 2 * maxConcurrent }

// shardCapable is the optional interface a serving engine implements
// to act as a shard replica. *d3l.Engine implements it; the sharded
// sets themselves do not (a shard of shards is not a topology this
// subsystem defines), so the endpoints answer 501 on them, and a write
// carrying assigned ids answers 400 (errAssignedIDs).
type shardCapable interface {
	Prepare(t *d3l.Table) (*core.Target, error)
	ShardProbe(ctx context.Context, target *core.Target, spec core.QuerySpec) (*core.ShardProbe, error)
	ShardGather(ctx context.Context, target *core.Target, spec core.QuerySpec, depths *core.ShardDepths) (*core.ShardPartial, error)
	ShardExplain(ctx context.Context, target *core.Target, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error)
	AddProfiled(t *d3l.Table, target *core.Target, at *d3l.WriteIDs) (int, error)
	UpdateAt(t *d3l.Table, attr int) (d3l.UpdateStats, error)
}

// The capability is discovered by type assertion at request time, so a
// signature drift in d3l would otherwise surface as a runtime 501.
var _ shardCapable = (*d3l.Engine)(nil)

// ShardProbeRequest is the probe-phase body: the target table and the
// resolved query parameter block every shard of the set runs with.
type ShardProbeRequest struct {
	Table TableJSON      `json:"table"`
	Spec  core.QuerySpec `json:"spec"`
}

// ShardGatherRequest is the gather-phase body: the same table and spec
// as the probe, plus the coordinator's globally merged depth directive.
type ShardGatherRequest struct {
	Table  TableJSON        `json:"table"`
	Spec   core.QuerySpec   `json:"spec"`
	Depths core.ShardDepths `json:"depths"`
}

// ShardExplainRequest asks the owning shard for the Table I-style
// rows against one of its lake tables, under the coordinator's
// resolved spec (the evidence mask is the only field that matters).
type ShardExplainRequest struct {
	Table     TableJSON      `json:"table"`
	LakeTable string         `json:"lakeTable"`
	Spec      core.QuerySpec `json:"spec"`
}

// ShardExplainResponse carries the rows in library shape.
type ShardExplainResponse struct {
	Rows []d3l.PairExplanation `json:"rows"`
}

// shardRequest is a shard route's body: each names the table it runs
// over.
type shardRequest interface{ wireTable() *TableJSON }

func (r *ShardProbeRequest) wireTable() *TableJSON   { return &r.Table }
func (r *ShardGatherRequest) wireTable() *TableJSON  { return &r.Table }
func (r *ShardExplainRequest) wireTable() *TableJSON { return &r.Table }

// errAssignedIDs refuses coordinator-assigned write ids on a serving
// mode that assigns them itself: only a shard replica takes them.
var errAssignedIDs = fmt.Errorf("%w: this serving mode assigns write ids itself", d3l.ErrWriteIDs)

// serveShard is the one path of the shard routes: it decodes the body,
// resolves the serving engine's shard surface and the swap generation
// it serves under (answering the 501 itself when the engine is not a
// shard-capable monolith), and runs the route's executor under the
// admission gate over the request's prepared target — the memo's on a
// hit, else prepared there and remembered (a malformed table answers
// 400) — writing its answer as contentType.
func serveShard[Req any, P interface {
	*Req
	shardRequest
}](s *Server, w http.ResponseWriter, r *http.Request, contentType string,
	execute func(ctx context.Context, sc shardCapable, target *core.Target, req *Req) ([]byte, error)) {
	var req Req
	if !s.decodeBody(w, r, &req) {
		return
	}
	gen, eng := s.cacheEpoch()
	sc, ok := eng.(shardCapable)
	if !ok {
		writeError(w, http.StatusNotImplemented, CodeUnsupported,
			"this serving mode cannot act as a shard replica")
		return
	}
	tj := P(&req).wireTable()
	key := shardTargetKey(gen, tj)
	target, hit := s.shardTargets.get(key)
	var table *d3l.Table
	if !hit {
		var err error
		if table, err = tj.toTable(); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
	}
	body, _, err := s.admit(r.Context(), func(ctx context.Context) ([]byte, error) {
		if !hit {
			var err error
			if target, err = sc.Prepare(table); err != nil {
				return nil, err
			}
			s.shardTargets.put(key, target)
		}
		return execute(ctx, sc, target, &req)
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeBody(w, http.StatusOK, contentType, body)
}

func (s *Server) handleShardProbe(w http.ResponseWriter, r *http.Request) {
	serveShard(s, w, r, "application/json", func(ctx context.Context, sc shardCapable, target *core.Target, req *ShardProbeRequest) ([]byte, error) {
		probe, err := sc.ShardProbe(ctx, target, req.Spec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(probe)
	})
}

func (s *Server) handleShardGather(w http.ResponseWriter, r *http.Request) {
	serveShard(s, w, r, shardPartialContentType, func(ctx context.Context, sc shardCapable, target *core.Target, req *ShardGatherRequest) ([]byte, error) {
		partial, err := sc.ShardGather(ctx, target, req.Spec, &req.Depths)
		if err != nil {
			return nil, err
		}
		return core.EncodeShardPartial(partial), nil
	})
}

func (s *Server) handleShardExplain(w http.ResponseWriter, r *http.Request) {
	serveShard(s, w, r, "application/json", func(ctx context.Context, sc shardCapable, target *core.Target, req *ShardExplainRequest) ([]byte, error) {
		rows, err := sc.ShardExplain(ctx, target, req.LakeTable, req.Spec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ShardExplainResponse{Rows: rows})
	})
}
