package server

import (
	"fmt"

	"d3l"
)

// This file defines the JSON wire format of the /v1 API. The response
// shapes double as the golden-test fixtures: the regression suite
// marshals library results through the same structs and asserts byte
// equality against committed fixtures, so any field added or reordered
// here fails the golden tests before it silently changes the wire.

// TableJSON is a table on the wire: column names plus row-major string
// cells, exactly the d3l.NewTable constructor arguments.
type TableJSON struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// toTable materialises the wire table through the public constructor
// (which infers column types and validates shape).
func (t *TableJSON) toTable() (*d3l.Table, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("table name is required")
	}
	if len(t.Columns) == 0 {
		return nil, fmt.Errorf("table %q has no columns", t.Name)
	}
	return d3l.NewTable(t.Name, t.Columns, t.Rows)
}

// AlignmentJSON is one target-column alignment of a result.
type AlignmentJSON struct {
	TargetColumn int                `json:"targetColumn"`
	AttrID       int                `json:"attrId"`
	CandColumn   int                `json:"candColumn"`
	Distances    d3l.DistanceVector `json:"distances"`
}

// ResultJSON is one ranked answer table.
type ResultJSON struct {
	TableID    int                `json:"tableId"`
	Name       string             `json:"name"`
	Distance   float64            `json:"distance"`
	Vector     d3l.DistanceVector `json:"vector"`
	Alignments []AlignmentJSON    `json:"alignments"`
}

// AugmentedJSON is one join-augmented answer (D3L+J).
type AugmentedJSON struct {
	Result       ResultJSON `json:"result"`
	Paths        [][]int    `json:"paths"`
	BaseCoverage float64    `json:"baseCoverage"`
	JoinCoverage float64    `json:"joinCoverage"`
}

// ExplanationJSON is one Table I-style pairwise distance row.
type ExplanationJSON struct {
	TargetColumn string             `json:"targetColumn"`
	SourceColumn string             `json:"sourceColumn"`
	Distances    d3l.DistanceVector `json:"distances"`
}

func toResultJSON(r d3l.Result) ResultJSON {
	out := ResultJSON{
		TableID:    r.TableID,
		Name:       r.Name,
		Distance:   r.Distance,
		Vector:     r.Vector,
		Alignments: make([]AlignmentJSON, len(r.Alignments)),
	}
	for i, a := range r.Alignments {
		out.Alignments[i] = AlignmentJSON{
			TargetColumn: a.TargetColumn,
			AttrID:       a.AttrID,
			CandColumn:   a.CandColumn,
			Distances:    a.Distances,
		}
	}
	return out
}

func toResultsJSON(rs []d3l.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = toResultJSON(r)
	}
	return out
}

func toAugmentedJSON(as []d3l.Augmented) []AugmentedJSON {
	out := make([]AugmentedJSON, len(as))
	for i, a := range as {
		paths := make([][]int, len(a.Paths))
		for j, p := range a.Paths {
			paths[j] = []int(p)
		}
		out[i] = AugmentedJSON{
			Result:       toResultJSON(a.Result),
			Paths:        paths,
			BaseCoverage: a.BaseCoverage,
			JoinCoverage: a.JoinCoverage,
		}
	}
	return out
}

func toExplanationsJSON(rows []d3l.PairExplanation) []ExplanationJSON {
	out := make([]ExplanationJSON, len(rows))
	for i, r := range rows {
		out[i] = ExplanationJSON{
			TargetColumn: r.TargetColumn,
			SourceColumn: r.SourceColumn,
			Distances:    r.Distances,
		}
	}
	return out
}

// QueryRequest is the unified query endpoint's body: the full
// per-query option set of the library's Query call on the wire.
type QueryRequest struct {
	Table TableJSON `json:"table"`
	// K is the answer size: absent selects the default (10); 0 is an
	// explanation-only query (requires explainFor); negative is a 400.
	K *int `json:"k,omitempty"`
	// Joins requests D3L+J augmentation in the response's joins field.
	Joins bool `json:"joins,omitempty"`
	// ExplainFor names a lake table to explain against in the
	// response's explanation field.
	ExplainFor string `json:"explainFor,omitempty"`
	// Weights override the engine's Eq. 3 evidence weights: exactly
	// five non-negative numbers (N, V, F, E, D order), not all zero.
	// A slice, not the fixed-size d3l.Weights array, so a wrong-length
	// request is a 400 instead of encoding/json silently zero-filling
	// or truncating it into a different query.
	Weights []float64 `json:"weights,omitempty"`
	// Evidence restricts the query to the named evidence types — any
	// of "name", "value", "format", "embedding", "domain". Absent
	// means all five.
	Evidence []string `json:"evidence,omitempty"`
	// CandidateBudget caps candidates per target attribute per index;
	// 0 or absent keeps the engine default.
	CandidateBudget int `json:"candidateBudget,omitempty"`
}

// queryPlan is a validated, canonicalised QueryRequest: the option
// list to hand the engine plus the normalised values the cache key
// folds in. Canonicalisation makes requests that mean the same thing
// share a key — an absent k and an explicit 10, or evidence lists in
// different orders.
type queryPlan struct {
	opts         []d3l.QueryOption
	k            int
	joins        bool
	explainFor   string
	weightsSet   bool
	weights      d3l.Weights
	evidenceMask uint64 // bit t set = evidence type t enabled
	budget       int
}

// plan validates the request and resolves it to a queryPlan. All
// option errors surface here, before any admission slot is taken, so
// a malformed request is a cheap 400.
func (r *QueryRequest) plan() (*queryPlan, error) {
	p := &queryPlan{
		k:          d3l.DefaultK,
		joins:      r.Joins,
		explainFor: r.ExplainFor,
		budget:     r.CandidateBudget,
	}
	if r.K != nil {
		if *r.K < 0 {
			return nil, fmt.Errorf("k must be positive, got %d", *r.K)
		}
		p.k = *r.K
		p.opts = append(p.opts, d3l.WithK(*r.K))
	}
	if p.k == 0 {
		if p.explainFor == "" {
			return nil, fmt.Errorf("k 0 asks for nothing; combine it with explainFor")
		}
		if p.joins {
			return nil, fmt.Errorf("joins require a ranking; use k > 0")
		}
	}
	if p.joins {
		p.opts = append(p.opts, d3l.WithJoins())
	}
	if p.explainFor != "" {
		p.opts = append(p.opts, d3l.WithExplainFor(p.explainFor))
	}
	if r.Weights != nil {
		if len(r.Weights) != int(d3l.NumEvidence) {
			return nil, fmt.Errorf("weights must have exactly %d entries (name, value, format, embedding, domain), got %d",
				int(d3l.NumEvidence), len(r.Weights))
		}
		var w d3l.Weights
		copy(w[:], r.Weights)
		// Canonicalise negative zero before validation and hashing: −0.0
		// scores identically to +0.0 (it survives Validate because
		// −0.0 < 0 is false), but its IEEE 754 bit pattern differs, so
		// without this a −0.0 weight would split the result cache into
		// two keys for one answer.
		for i := range w {
			if w[i] == 0 {
				w[i] = 0
			}
		}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		p.weightsSet = true
		p.weights = w
		p.opts = append(p.opts, d3l.WithWeights(w))
	}
	p.evidenceMask = (1 << uint(d3l.NumEvidence)) - 1
	if len(r.Evidence) > 0 {
		var types []d3l.Evidence
		var mask uint64
		for _, name := range r.Evidence {
			t, err := d3l.ParseEvidence(name)
			if err != nil {
				return nil, fmt.Errorf("unknown evidence type %q (want name, value, format, embedding or domain)", name)
			}
			if mask&(1<<uint(t)) == 0 {
				types = append(types, t)
			}
			mask |= 1 << uint(t)
		}
		p.evidenceMask = mask
		p.opts = append(p.opts, d3l.WithEvidence(types...))
	}
	if r.CandidateBudget < 0 {
		return nil, fmt.Errorf("candidateBudget must be non-negative, got %d", r.CandidateBudget)
	}
	if r.CandidateBudget > 0 {
		p.opts = append(p.opts, d3l.WithCandidateBudget(r.CandidateBudget))
	}
	return p, nil
}

// QueryStatsJSON carries the deterministic per-query work counters —
// identical at any parallelism, hence safe to cache and replay
// (wall-clock latency deliberately stays off the wire).
type QueryStatsJSON struct {
	K              int `json:"k"`
	CandidatePairs int `json:"candidatePairs"`
	TablesScored   int `json:"tablesScored"`
}

// QueryResponse is the unified endpoint's answer; sections the request
// did not ask for are omitted.
type QueryResponse struct {
	Results     []ResultJSON      `json:"results,omitempty"`
	Joins       []AugmentedJSON   `json:"joins,omitempty"`
	Explanation []ExplanationJSON `json:"explanation,omitempty"`
	Stats       QueryStatsJSON    `json:"stats"`
	// Degraded reports that a sharded backend answered this query from
	// a subset of its shards under the opt-in ?partial=true policy.
	// Omitted (false) everywhere else, so complete answers — including
	// every committed golden fixture — are byte-identical with and
	// without sharding.
	Degraded bool `json:"degraded,omitempty"`
}

// TablesResponse lists the live table names (GET /v1/tables).
type TablesResponse struct {
	Tables []string `json:"tables"`
	Count  int      `json:"count"`
}

// TopKRequest asks for the k most related lake tables of one target.
// K is a pointer so an omitted field is distinguishable from an
// explicit 0 — both are 400s, with messages telling the two apart.
type TopKRequest struct {
	Table TableJSON `json:"table"`
	K     *int      `json:"k"`
}

// TopKResponse carries the ranked answer. Degraded follows the
// QueryResponse contract (set only for opt-in partial sharded answers).
type TopKResponse struct {
	Results  []ResultJSON `json:"results"`
	Degraded bool         `json:"degraded,omitempty"`
}

// requireK is the one k-validation rule of the ranking endpoints
// (/v1/topk, /v1/joins, /v1/batch): k must be present and positive.
// All three share this helper so an invalid k yields the identical 400
// envelope whichever endpoint it hits. (/v1/query differs by design —
// absent k selects the default and k 0 is valid for explanation-only
// queries — but its negative-k message matches requireK's.)
func requireK(k *int) (int, error) {
	if k == nil {
		return 0, fmt.Errorf("k is required and must be positive")
	}
	if *k <= 0 {
		return 0, fmt.Errorf("k must be positive, got %d", *k)
	}
	return *k, nil
}

// BatchRequest asks one top-k query per target table. K follows
// TopKRequest's pointer convention.
type BatchRequest struct {
	Tables []TableJSON `json:"tables"`
	K      *int        `json:"k"`
}

// BatchResponse is indexed like BatchRequest.Tables. Degraded follows
// the QueryResponse contract (set when any answer of the batch was
// served from a subset of shards under ?partial=true).
type BatchResponse struct {
	Results  [][]ResultJSON `json:"results"`
	Degraded bool           `json:"degraded,omitempty"`
}

// JoinsResponse carries the join-augmented answer for a TopKRequest
// posted to /v1/joins.
type JoinsResponse struct {
	Results []AugmentedJSON `json:"results"`
}

// ExplainRequest asks for the pairwise distance breakdown between a
// target table and one named lake table.
type ExplainRequest struct {
	Table     TableJSON `json:"table"`
	LakeTable string    `json:"lakeTable"`
}

// ExplainResponse carries the Table I-style rows.
type ExplainResponse struct {
	Rows []ExplanationJSON `json:"rows"`
}

// AddTableRequest adds one table to the lake (incremental indexing).
type AddTableRequest struct {
	Table TableJSON `json:"table"`
}

// AddTableResponse reports the assigned table id.
type AddTableResponse struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// UpdateTableRequest replaces the contents of one table in place
// (PUT /v1/tables/{name}). The path names the table; the body carries
// the new contents under the same name — a mismatch is a 409.
type UpdateTableRequest struct {
	Table TableJSON `json:"table"`
}

// UpdateTableResponse reports what the delta re-profile actually did:
// how many columns were re-profiled (changed or added), kept with
// their attribute ids intact, added and dropped. The id is unchanged
// by construction — in-place updates never reassign it.
type UpdateTableResponse struct {
	Updated        string `json:"updated"`
	ID             int    `json:"id"`
	ReprofiledCols int    `json:"reprofiledCols"`
	KeptCols       int    `json:"keptCols"`
	AddedCols      int    `json:"addedCols"`
	DroppedCols    int    `json:"droppedCols"`
}

// RemoveTableResponse acknowledges a removal.
type RemoveTableResponse struct {
	Removed string `json:"removed"`
}

// HealthResponse is the /v1/healthz body. It deliberately carries
// only wait-free fields: a liveness probe must answer instantly even
// while a mutation holds the engine write lock (table and attribute
// counts, which read under that lock, live in /v1/statsz).
type HealthResponse struct {
	Status            string `json:"status"` // "ok" or "draining"
	EngineFingerprint string `json:"engineFingerprint"`
}

// StatsResponse is the /v1/statsz body: serving counters since start,
// plus the engine-lifetime query-planner counters (plan cache
// hits/misses and the pruning work the evidence cascade elided).
type StatsResponse struct {
	EngineFingerprint string `json:"engineFingerprint"`
	Tables            int    `json:"tables"`
	Attributes        int    `json:"attributes"`
	Requests          int64  `json:"requests"`
	InFlight          int64  `json:"inFlight"`
	CacheHits         int64  `json:"cacheHits"`
	CacheMisses       int64  `json:"cacheMisses"`
	Coalesced         int64  `json:"coalesced"` // identical misses that shared another request's computation
	CacheEntries      int    `json:"cacheEntries"`
	Rejected          int64  `json:"rejected"`    // 429: admission gate full
	Unavailable       int64  `json:"unavailable"` // 503: draining
	Timeouts          int64  `json:"timeouts"`    // 503: per-request deadline (work cancelled)
	Canceled          int64  `json:"canceled"`    // client disconnected mid-computation (work cancelled)
	Mutations         int64  `json:"mutations"`
	Updates           int64  `json:"updates"`         // in-place table updates (subset of mutations)
	UpdateDeltaCols   int64  `json:"updateDeltaCols"` // columns re-profiled by those updates
	Reloads           int64  `json:"reloads"`
	// Query-planner counters (see d3l.PlannerTotals). They describe the
	// currently serving engine and reset with it on reload.
	PlanCacheHits       int64 `json:"planCacheHits"`
	PlanCacheMisses     int64 `json:"planCacheMisses"`
	TablesPruned        int64 `json:"tablesPruned"`
	PairsPruned         int64 `json:"pairsPruned"`
	EvidenceEvalsElided int64 `json:"evidenceEvalsElided"`
}

// ReloadResponse acknowledges a hot snapshot reload.
type ReloadResponse struct {
	Reloaded          bool   `json:"reloaded"`
	EngineFingerprint string `json:"engineFingerprint"`
}

// ErrorBody is the uniform error envelope: every non-2xx response is
// {"error": {"code": ..., "message": ...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a machine-readable code and a human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used in ErrorDetail.Code.
const (
	CodeBadRequest = "bad_request" // 400: malformed JSON or invalid parameters
	CodeNotFound   = "not_found"   // 404: unknown lake table or route
	CodeConflict   = "conflict"    // 409: duplicate name on add, or path/body name mismatch on update

	// CodeMethodNotAllowed is 405: the per-table resource exists but
	// the method is not PUT or DELETE (the Allow header lists them).
	CodeMethodNotAllowed = "method_not_allowed"

	CodeTooLarge    = "too_large"   // 413: body exceeds MaxBodyBytes
	CodeOverloaded  = "overloaded"  // 429: admission gate full
	CodeInternal    = "internal"    // 500: unexpected engine failure
	CodeUnavailable = "unavailable" // 503: server draining or reload failed
	CodeTimeout     = "timeout"     // 503: per-request deadline exceeded

	// CodeUnsupported is 501: the query asks for a feature this
	// serving mode does not implement (WithJoins on a sharded backend:
	// the SA-join graph spans shards).
	CodeUnsupported = "unsupported"
)
