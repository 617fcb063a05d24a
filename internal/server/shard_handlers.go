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
// /v1/shard/probe and /v1/shard/gather. Writes take the ordinary table
// routes; the coordinator sends each one to its owner only, with the
// ids it assigned the write in the request body (AddTableRequest), so
// the replica holds its tables under the monolith's ids.
//
// The endpoints are admission-gated like every other query and
// mutation, but deliberately uncached: a probe or gather answer is an
// intermediate of one coordinator query, and the coordinator caches
// the merged final answer under its own fingerprint-keyed cache, so a
// replica-side cache would only hold bytes no client can ever hit
// twice (the gather body varies with the globally merged depths).
//
// What a replica does keep between the two phases is the profiled
// target: profiling is the one piece of work probe and gather share
// (ProfileTarget, ~0.9 ms), and the gather of a query follows its probe
// by milliseconds. The probe handler leaves the profiles in a small LRU
// memo keyed by the SHA-256 of the target content; the gather handler
// finds them there and skips both the row-to-column conversion and the
// profiling pass. A miss — the gather failed over or hedged to a
// replica that never saw the probe, the process restarted, the entry
// aged out — just profiles again, so the memo can only save work, never
// change an answer: profiles are a pure function of the table and the
// engine's immutable options. The key carries the swap generation and
// Swap purges, so profiles never cross engines.
//
// Probe and explain answers, and every error, are JSON. The gather
// answer — a thousand rows and five thousand float64 samples — is the
// binary form of d3l.EncodeShardPartial under shardPartialContentType.
// Every answer is complete before its first byte is written and
// declares its Content-Length (writeBody), which is what lets the
// coordinator read a 150 kB partial into one buffer of that size.

// shardPartialContentType labels the binary gather answer.
const shardPartialContentType = "application/vnd.d3l.shard-partial"

// shardTargetMemoEntries sizes the profiled-target memo from the
// admission capacity: a slot for every probe the gate can be running
// and one more for each gather that may still be on its way.
func shardTargetMemoEntries(maxConcurrent int) int { return 2 * maxConcurrent }

// shardCapable is the optional interface a serving engine implements
// to act as a shard replica. *d3l.Engine implements it; the sharded
// sets themselves do not (a shard of shards is not a topology this
// subsystem defines), so the endpoints answer 501 on them, and a write
// carrying assigned ids answers 400 (errAssignedIDs).
type shardCapable interface {
	PrepareShardTarget(target *d3l.Table) *d3l.ShardTarget
	ShardProbe(ctx context.Context, target *d3l.ShardTarget, spec core.QuerySpec) (*d3l.ShardProbe, error)
	ShardGather(ctx context.Context, target *d3l.ShardTarget, spec core.QuerySpec, depths *d3l.ShardDepths) (*d3l.ShardPartial, error)
	ShardExplain(ctx context.Context, target *d3l.Table, lakeTable string, spec core.QuerySpec) ([]d3l.PairExplanation, error)
	AddProfiled(t *d3l.Table, profiled *d3l.ShardTarget, at *d3l.WriteIDs) (int, error)
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
	Table  TableJSON       `json:"table"`
	Spec   core.QuerySpec  `json:"spec"`
	Depths d3l.ShardDepths `json:"depths"`
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

// errAssignedIDs refuses coordinator-assigned write ids on a serving
// mode that assigns them itself: only a shard replica takes them.
var errAssignedIDs = fmt.Errorf("%w: this serving mode assigns write ids itself", d3l.ErrWriteIDs)

// shardTarget resolves a probe or gather request's target to its
// profiles: the memo's on a hit, else a function that profiles the
// table (under the admission gate, where the caller runs it) and
// remembers the result. It answers the 400 itself for a malformed
// table.
func (s *Server) shardTarget(w http.ResponseWriter, sc shardCapable, gen uint64, tj *TableJSON) (func() *d3l.ShardTarget, bool) {
	key := shardTargetKey(gen, tj)
	if target, ok := s.shardTargets.get(key); ok {
		return func() *d3l.ShardTarget { return target }, true
	}
	table, err := tj.toTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return nil, false
	}
	return func() *d3l.ShardTarget {
		target := sc.PrepareShardTarget(table)
		s.shardTargets.put(key, target)
		return target
	}, true
}

// shardWork is a shard route's request made ready to run under the
// admission gate; it returns the answer's bytes.
type shardWork = func(ctx context.Context) ([]byte, error)

// serveShard is the one path of the shard routes: it decodes the body,
// resolves the serving engine's shard surface and the swap generation
// it serves under (answering the 501 itself when the engine is not a
// shard-capable monolith), has prepare ready the work (prepare answers
// a 400 itself and reports false), and writes the work's answer as
// contentType.
func serveShard[Req any](s *Server, w http.ResponseWriter, r *http.Request, contentType string,
	prepare func(sc shardCapable, gen uint64, req *Req) (shardWork, bool)) {
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
	work, ok := prepare(sc, gen, &req)
	if !ok {
		return
	}
	body, _, err := s.admit(r.Context(), work)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeBody(w, http.StatusOK, contentType, body)
}

func (s *Server) handleShardProbe(w http.ResponseWriter, r *http.Request) {
	serveShard(s, w, r, "application/json", func(sc shardCapable, gen uint64, req *ShardProbeRequest) (shardWork, bool) {
		target, ok := s.shardTarget(w, sc, gen, &req.Table)
		return func(ctx context.Context) ([]byte, error) {
			probe, err := sc.ShardProbe(ctx, target(), req.Spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(probe)
		}, ok
	})
}

func (s *Server) handleShardGather(w http.ResponseWriter, r *http.Request) {
	serveShard(s, w, r, shardPartialContentType, func(sc shardCapable, gen uint64, req *ShardGatherRequest) (shardWork, bool) {
		target, ok := s.shardTarget(w, sc, gen, &req.Table)
		return func(ctx context.Context) ([]byte, error) {
			partial, err := sc.ShardGather(ctx, target(), req.Spec, &req.Depths)
			if err != nil {
				return nil, err
			}
			return d3l.EncodeShardPartial(partial), nil
		}, ok
	})
}

func (s *Server) handleShardExplain(w http.ResponseWriter, r *http.Request) {
	serveShard(s, w, r, "application/json", func(sc shardCapable, _ uint64, req *ShardExplainRequest) (shardWork, bool) {
		target, err := req.Table.toTable()
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return nil, false
		}
		return func(ctx context.Context) ([]byte, error) {
			rows, err := sc.ShardExplain(ctx, target, req.LakeTable, req.Spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(ShardExplainResponse{Rows: rows})
		}, true
	})
}
