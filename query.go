package d3l

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"d3l/internal/core"
	"d3l/internal/joins"
)

// This file is the unified, context-first query surface: one
// parameterised call — Query — covering what used to be four parallel
// entry points (TopK, BatchTopK, TopKWithJoins, Explain), exactly as
// the paper frames discovery as one parameterised query (evidence set,
// Eq. 3 weights, k, optional D3L+J augmentation). The legacy quartet
// remains as thin wrappers over Query with default options, so
// existing callers are untouched.
//
// Cancellation is cooperative and end-to-end: the ctx handed to Query
// is checked between candidate batches in the index fan-out, between
// table-scoring slots, between batch targets, and through join-graph
// construction and path traversal. A cancelled query returns ctx.Err()
// — never a partial answer — and releases its workers promptly, which
// is what lets the HTTP serving layer free a timed-out request's
// admission slot instead of carrying doomed work to completion.

// DefaultK is the answer size Query uses when no WithK option is
// given.
const DefaultK = 10

// ErrInvalidOptions reports a Query/QueryBatch call whose option set
// is malformed (negative k, empty evidence list, invalid weights, a
// combination that requests nothing, …). Every option-validation
// error wraps it, so serving layers can map the whole class onto a
// client error (400) with errors.Is instead of treating it as an
// engine failure.
var ErrInvalidOptions = errors.New("d3l: invalid query options")

// QueryOption configures one Query or QueryBatch call. Options never
// mutate engine state: two concurrent queries with different options
// cannot interfere.
type QueryOption func(*queryConfig)

type queryConfig struct {
	k           int
	kSet        bool
	joins       bool
	explainFor  string
	weights     *Weights
	disabled    *[NumEvidence]bool
	budget      int
	partialOK   bool
	parallelism int   // internal: QueryBatch pins inner queries to 1
	err         error // first option error, reported by Query
}

func (c *queryConfig) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithK sets the answer size. k = 0 requests no ranking at all — valid
// only together with WithExplainFor, for explanation-only queries that
// skip the top-k pipeline entirely. Negative k is an error.
func WithK(k int) QueryOption {
	return func(c *queryConfig) {
		if k < 0 {
			c.fail(fmt.Errorf("%w: k must be non-negative, got %d", ErrInvalidOptions, k))
			return
		}
		c.k = k
		c.kSet = true
	}
}

// WithJoins requests D3L+J augmentation (Section IV): the answer's
// Joins field carries SA-join paths and Eq. 4/5 coverage per ranked
// table. The join graph is an engine-level structure built from the
// engine's own evidence configuration, shared and cached across
// queries; per-query weights and evidence masks shape the ranking the
// paths start from, not the graph itself.
func WithJoins() QueryOption {
	return func(c *queryConfig) { c.joins = true }
}

// WithExplainFor requests the Table I-style pairwise distance rows
// between the target and the named lake table in the answer's
// Explanation field. The per-query evidence mask applies to the
// explanation distances too.
func WithExplainFor(name string) QueryOption {
	return func(c *queryConfig) {
		if name == "" {
			c.fail(fmt.Errorf("%w: WithExplainFor requires a table name", ErrInvalidOptions))
			return
		}
		c.explainFor = name
	}
}

// WithWeights replaces the engine's Eq. 3 evidence weights for this
// query only. The weights must validate (non-negative, not all zero).
func WithWeights(w Weights) QueryOption {
	return func(c *queryConfig) {
		if err := w.Validate(); err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrInvalidOptions, err))
			return
		}
		c.weights = &w
	}
}

// WithEvidence restricts this query to the given evidence types —
// e.g. WithEvidence(EvidenceName, EvidenceValue) runs a name+value-only
// unionability query against the same index. Unlisted evidence
// contributes distance 1 and weight 0, exactly like the engine-level
// ablation switches; evidence the engine itself disabled stays
// disabled. At least one type must be listed.
func WithEvidence(types ...Evidence) QueryOption {
	return func(c *queryConfig) {
		if len(types) == 0 {
			c.fail(fmt.Errorf("%w: WithEvidence requires at least one evidence type", ErrInvalidOptions))
			return
		}
		var disabled [NumEvidence]bool
		for i := range disabled {
			disabled[i] = true
		}
		for _, t := range types {
			if t < 0 || t >= NumEvidence {
				c.fail(fmt.Errorf("%w: unknown evidence type %d", ErrInvalidOptions, t))
				return
			}
			disabled[t] = false
		}
		c.disabled = &disabled
	}
}

// ParseEvidence resolves an evidence-type name — the long form
// ("name", "value", "format", "embedding", "domain") or the paper's
// single letter (N, V, F, E, D), case-insensitively — for WithEvidence
// callers that take evidence sets from flags or wire requests.
func ParseEvidence(name string) (Evidence, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "name", "n":
		return EvidenceName, nil
	case "value", "v":
		return EvidenceValue, nil
	case "format", "f":
		return EvidenceFormat, nil
	case "embedding", "e":
		return EvidenceEmbedding, nil
	case "domain", "d":
		return EvidenceDomain, nil
	default:
		return 0, fmt.Errorf("d3l: unknown evidence type %q (want name, value, format, embedding or domain)", name)
	}
}

// WithPartialResults opts this query into the sharded coordinator's
// degraded mode: when a shard replica is unreachable after retries, the
// query is answered from the surviving shards and Answer.Degraded is
// set, instead of failing closed (the default). A degraded answer ranks
// only tables owned by the shards that responded. The option is inert
// on a monolithic engine and on in-process shard sets, which have no
// replicas to lose.
func WithPartialResults() QueryOption {
	return func(c *queryConfig) { c.partialOK = true }
}

// WithCandidateBudget caps the candidates gathered per target
// attribute per index for this query (0 keeps the engine default,
// which derives from k). Larger budgets trade latency for recall.
func WithCandidateBudget(n int) QueryOption {
	return func(c *queryConfig) {
		if n < 0 {
			c.fail(fmt.Errorf("%w: candidate budget must be non-negative, got %d", ErrInvalidOptions, n))
			return
		}
		c.budget = n
	}
}

func newQueryConfig(opts []QueryOption) (queryConfig, error) {
	cfg := queryConfig{k: DefaultK}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return cfg, cfg.err
	}
	if cfg.kSet && cfg.k == 0 {
		if cfg.explainFor == "" {
			return cfg, fmt.Errorf("%w: k is 0 and no explanation is requested; the query asks for nothing", ErrInvalidOptions)
		}
		if cfg.joins {
			return cfg, fmt.Errorf("%w: WithJoins requires a ranking; combine it with k > 0", ErrInvalidOptions)
		}
	}
	return cfg, nil
}

// QueryStats reports per-query work counters. CandidatePairs and
// TablesScored are deterministic (identical at any parallelism);
// Elapsed is wall-clock.
type QueryStats struct {
	// K is the effective answer size the query ran with.
	K int
	// CandidatePairs counts the (target column, candidate attribute)
	// distance vectors the index fan-out computed.
	CandidatePairs int
	// TablesScored counts candidate tables scored before the top-k
	// cut.
	TablesScored int
	// Elapsed is the end-to-end latency of the call.
	Elapsed time.Duration
}

// Answer is the result of one Query: the ranked tables, plus whatever
// optional sections the options requested.
type Answer struct {
	// Results is the ranked top-k answer (nil for explanation-only
	// queries issued with WithK(0)).
	Results []Result
	// Joins carries the D3L+J augmentation per ranked table; non-nil
	// only with WithJoins.
	Joins []Augmented
	// Explanation carries the Table I-style distance rows; non-nil
	// only with WithExplainFor.
	Explanation []PairExplanation
	// Stats summarises the work this query did.
	Stats QueryStats
	// Plan reports what the query's plan did — the evidence-cascade
	// order, whether the plan was cached, and the deterministic pruning
	// counters. Zero for explanation-only queries.
	Plan PlanStats
	// Degraded reports that a sharded query was answered from a subset
	// of its shards under the opt-in partial-failure policy. Monolith
	// answers and fully-healthy sharded answers always report false.
	Degraded bool
}

// Query answers one discovery query: the k most related lake tables
// for the target, optionally augmented with join paths (WithJoins) and
// a pairwise distance explanation (WithExplainFor), under per-query
// weights, evidence subset and candidate budget. With no options it is
// exactly TopK(target, DefaultK).
//
// ctx cancels cooperatively: the pipeline checks it between candidate
// batches and worker slots, and a cancelled query returns ctx.Err(),
// never a partial answer. Query is safe for concurrent use alongside
// mutations and other queries.
func (e *Engine) Query(ctx context.Context, target *Table, opts ...QueryOption) (*Answer, error) {
	cfg, err := newQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.joins {
		// Join-graph building and augmentation hold profile pointers
		// across many engine calls; the mutation lock (read mode) keeps
		// Add/Remove from interleaving, as in TopKWithJoins.
		e.mu.RLock()
		defer e.mu.RUnlock()
	}
	return e.query(ctx, target, cfg)
}

// query runs one configured query. When cfg.joins is set the caller
// must hold e.mu in read mode.
func (e *Engine) query(ctx context.Context, target *Table, cfg queryConfig) (*Answer, error) {
	if target == nil {
		return nil, fmt.Errorf("d3l: nil target")
	}
	if cfg.explainFor != "" && !e.core.HasTable(cfg.explainFor) {
		// Fail the whole query before any ranking work: an unknown
		// explanation target must not cost a full search per retry.
		// This is advisory (the table can vanish between here and the
		// explanation, which re-resolves under the query lock); it
		// mirrors core.ExplainSpec's own check-before-profiling rule.
		return nil, fmt.Errorf("%w: no table %q in the lake", ErrTableNotFound, cfg.explainFor)
	}
	start := time.Now()
	spec := core.QuerySpec{
		K:               cfg.k,
		Weights:         cfg.weights,
		Disabled:        cfg.disabled,
		CandidateBudget: cfg.budget,
		Parallelism:     cfg.parallelism,
	}
	ans := &Answer{Stats: QueryStats{K: cfg.k}}
	var res *core.SearchResult
	if cfg.k > 0 {
		var err error
		res, err = e.core.SearchSpec(ctx, target, spec)
		if err != nil {
			return nil, err
		}
		ans.Results = res.Ranked
		ans.Stats.CandidatePairs = res.Stats.CandidatePairs
		ans.Stats.TablesScored = res.Stats.TablesScored
		ans.Plan = res.Plan
		if cfg.joins {
			g, err := e.joinGraphCtx(ctx)
			if err != nil {
				return nil, err
			}
			augs, err := joins.AugmentCtx(ctx, e.core, g, res, joins.DefaultPathOptions())
			if err != nil {
				return nil, err
			}
			ans.Joins = augs
		}
	}
	if cfg.explainFor != "" {
		var rows []PairExplanation
		var err error
		if res != nil {
			// The ranking already profiled the target; reuse it.
			rows, err = e.core.ExplainProfiled(ctx, target, res.TargetProfiles, res.TargetSubject, cfg.explainFor, spec)
		} else {
			rows, err = e.core.ExplainSpec(ctx, target, cfg.explainFor, spec)
		}
		if err != nil {
			return nil, err
		}
		ans.Explanation = rows
	}
	ans.Stats.Elapsed = time.Since(start)
	return ans, nil
}

// QueryBatch answers one Query per target concurrently across the
// engine's worker pool — the high-throughput serving primitive. All
// targets share one option set; the answer slice is indexed like
// targets. Cancellation wins over per-target failures: once ctx is
// cancelled, workers stop picking up targets and the call returns
// ctx.Err(); otherwise the first query error aborts the batch. With
// WithJoins, the SA-join graph is built (or reused) once and shared by
// every answer.
func (e *Engine) QueryBatch(ctx context.Context, targets []*Table, opts ...QueryOption) ([]*Answer, error) {
	cfg, err := newQueryConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.joins {
		e.mu.RLock()
		defer e.mu.RUnlock()
		// Build the shared graph up front: pool workers would otherwise
		// race duplicate builds of the same graph.
		if _, err := e.joinGraphCtx(ctx); err != nil {
			return nil, err
		}
	}
	// Each query runs its own pipeline sequentially; cross-target
	// parallelism already saturates the pool.
	inner := cfg
	inner.parallelism = 1
	answers := make([]*Answer, len(targets))
	errs := make([]error, len(targets))
	if err := e.core.ForEachQuery(ctx, len(targets), func(i int) {
		a, err := e.query(ctx, targets[i], inner)
		if err != nil {
			errs[i] = fmt.Errorf("target %d: %w", i, err)
			return
		}
		answers[i] = a
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}
