package core

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
)

// This file implements the prepare half of the query pipeline's
// prepare/execute split. A prepared plan is the evidence cascade: the
// enabled evidence types ordered cheapest-first (name and format
// signatures before value minhash before the distribution KS), which is
// the order the execute phase aggregates Eq. 1 components in so it can
// stop — and elide the remaining, more expensive evaluations — as soon
// as a candidate table provably cannot crack the top-k.
//
// The cascade is a pure acceleration: it elides only per-table scoring
// work whose outcome is already decided (the pruning bound is a
// monotone lower bound on the final Eq. 3 distance, compared strictly
// against the live top-k threshold with a safety margin, so a pruned
// table could never have entered the heap). So there is one pipeline,
// not a planned and a plan-free one: the ranked answer, its per-table
// distances and the deterministic SearchStats counters are bit-identical
// to the paper-literal reference in query_ref_test.go, which scores
// every table in full and sorts.
//
// The forest probes need nothing from a plan (lsh.Forest.Probe finds
// its stop depth in one walk, with no starting point to remember), so a
// plan is a pure function of the evidence mask: the package holds all
// 1 << NumEvidence of them in one table, built once and shared by every
// engine, query and shard merge.
//
// Why per-pair distance kernels are NOT elided: the Eq. 2 CCDF
// weights are built from the distance distributions over *all*
// gathered pairs, so skipping any pair's distance vector would change
// every other pair's weight and thus the ranking. Only downstream
// per-table work (Eq. 1 aggregation and its ECDF lookups, Eq. 3) is
// prunable without changing answers; the candidate sets themselves
// are likewise fixed by the budget, which is why the adaptive dial on
// the gather side is the probe depth, not the candidate count.

// plannerMargin guards the pruning bound against floating-point
// rounding: the bound's partial sum accumulates in cascade order while
// combineEq3 accumulates in evidence-index order, so the two can
// differ by a few ulps. Scaling the bound down by this margin (~1e7×
// the worst-case relative summation error of five non-negative terms)
// makes an over-aggressive prune impossible; a missed prune merely
// costs the work the plan hoped to save.
const plannerMargin = 1e-9

// evidenceCostRank orders evidence types by evaluation cost, the
// static cost model behind the cascade: name and format evidence come
// from short signature comparisons, embedding from bit signatures,
// value minhash from the (larger) token signatures, and the domain KS
// from a full merge over two numeric extents.
var evidenceCostRank = [NumEvidence]int{
	EvidenceName:      0,
	EvidenceFormat:    1,
	EvidenceEmbedding: 2,
	EvidenceValue:     3,
	EvidenceDomain:    4,
}

// preparedPlan is one evidence mask's plan, immutable.
type preparedPlan struct {
	// cascade lists the enabled evidence types cheapest-first.
	cascade []Evidence
	// order is the display form of the cascade ("N→F→V", say), built
	// once so per-query PlanStats need no allocation.
	order string
}

// plans is every evidence mask's plan, indexed by maskOf.
var plans = func() (ps [1 << NumEvidence]preparedPlan) {
	for mask := range ps {
		var b strings.Builder
		for rank := 0; rank < int(NumEvidence); rank++ {
			for t := 0; t < int(NumEvidence); t++ {
				if evidenceCostRank[t] != rank || mask&(1<<t) != 0 {
					continue
				}
				if b.Len() > 0 {
					b.WriteString("→")
				}
				b.WriteString(Evidence(t).String())
				ps[mask].cascade = append(ps[mask].cascade, Evidence(t))
			}
		}
		ps[mask].order = b.String()
	}
	return ps
}()

// maskOf is the plans index of an evidence mask: bit t set = evidence
// type t disabled.
func maskOf(disabled [NumEvidence]bool) int {
	var mask int
	for t, off := range disabled {
		if off {
			mask |= 1 << t
		}
	}
	return mask
}

// planFor returns an evidence mask's plan.
func planFor(disabled [NumEvidence]bool) *preparedPlan { return &plans[maskOf(disabled)] }

// PlanStats reports what the plan did for one query. All counters are
// deterministic — candidate tables are scored sequentially in ascending
// table-id order, so the same query prunes the same tables at any
// parallelism — and they live outside SearchStats, which counts the
// work the query was given rather than the work the cascade saved.
type PlanStats struct {
	// Enabled is true for every ranking query (and false in the zero
	// PlanStats of an explanation-only answer).
	Enabled bool
	// Order is the evidence cascade the query executed, cheapest-first.
	Order string
	// TablesPruned counts candidate tables whose scoring stopped early
	// because their best-attainable Eq. 3 distance could no longer
	// crack the top-k.
	TablesPruned int
	// PairsPruned counts the candidate pairs inside pruned tables —
	// the pairs whose Eq. 1 aggregation never ran to completion.
	PairsPruned int
	// EvidenceEvalsElided counts the per-(table, evidence-type)
	// aggregation passes the cascade skipped.
	EvidenceEvalsElided int
}

// PlannerTotals are the engine-lifetime planner counters, the numbers
// /v1/statsz exposes. They accumulate atomically across queries.
type PlannerTotals struct {
	// PlanCacheMisses counts each evidence mask's first ranking query on
	// the engine, one per mask it has served; PlanCacheHits counts every
	// other ranking query.
	PlanCacheHits       int64 `json:"planCacheHits"`
	PlanCacheMisses     int64 `json:"planCacheMisses"`
	TablesPruned        int64 `json:"tablesPruned"`
	PairsPruned         int64 `json:"pairsPruned"`
	EvidenceEvalsElided int64 `json:"evidenceEvalsElided"`
}

// plannerCounters is the atomic backing of PlannerTotals, and masks the
// set of evidence masks the engine has queried (bit maskOf), which tells
// a miss from a hit.
type plannerCounters struct {
	masks          atomic.Uint32
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	tablesPruned   atomic.Int64
	pairsPruned    atomic.Int64
	evidenceElided atomic.Int64
}

// PlannerTotals snapshots the engine-lifetime planner counters.
func (e *Engine) PlannerTotals() PlannerTotals {
	return PlannerTotals{
		PlanCacheHits:       e.planStats.cacheHits.Load(),
		PlanCacheMisses:     e.planStats.cacheMisses.Load(),
		TablesPruned:        e.planStats.tablesPruned.Load(),
		PairsPruned:         e.planStats.pairsPruned.Load(),
		EvidenceEvalsElided: e.planStats.evidenceElided.Load(),
	}
}

// preparePlan returns the plan for the view's evidence mask and counts
// the query: a miss when it is the mask's first on this engine, a hit
// otherwise, so the lifetime misses are the number of masks this engine
// has served.
func (e *Engine) preparePlan(view *specView) *preparedPlan {
	mask := maskOf(view.disabled)
	if bit := uint32(1) << mask; e.planStats.masks.Or(bit)&bit == 0 {
		e.planStats.cacheMisses.Add(1)
	} else {
		e.planStats.cacheHits.Add(1)
	}
	return &plans[mask]
}

// scorer is the Eq. 1–3 arithmetic of one query: the effective weights
// and evidence mask, the cascade order, the grid the rows' distances
// are coded on, and the Eq. 2 distributions. It is what the monolith's
// ranker and the shard coordinator's merge have in common, so both
// score through it and cannot drift apart.
type scorer struct {
	k        int
	weights  Weights
	disabled [NumEvidence]bool
	cascade  []Evidence
	grid     *distanceGrid
	eq2      *eq2Weights
	// den and max are Eq. 3's normalisation constants, accumulated
	// exactly as combineEq3 does (index order), so the pruning bound and
	// the final reduction divide by the same floats.
	den, max float64
}

func newScorer(k int, weights Weights, disabled [NumEvidence]bool, cascade []Evidence, grid *distanceGrid, eq2 *eq2Weights) scorer {
	sc := scorer{k: k, weights: weights, disabled: disabled, cascade: cascade, grid: grid, eq2: eq2}
	for t := 0; t < int(NumEvidence); t++ {
		w := weights[t]
		if disabled[t] {
			w = 0
		}
		sc.den += w
		sc.max += w * w
	}
	return sc
}

// scoreTable scores one candidate table from its alignment rows (one
// per aligned target column, ascending): Eq. 1 aggregates each evidence
// type column-wise under the Eq. 2 weights, Eq. 3 reduces the vector to
// the distance. The components are aggregated in cascade order and
// pruned against threshold: between components the final distance is
// lower-bounded by treating every not-yet-aggregated component as 0
// (its best case), and once even that bound strictly exceeds the
// threshold the remaining evaluations are elided — the table cannot
// displace any heap entry, ties included, because its true distance is
// strictly worse than the root's. elided > 0 marks a pruned table;
// survivors return elided == 0 and, with threshold +Inf, every table
// survives.
//
// A survivor's result is float-for-float the paper-literal aggregation
// the reference in query_ref_test.go keeps: each component accumulates
// over the rows in the same ascending-column order, and the distance
// comes from combineEq3 over the full vector (never from the cascade's
// partial sums, whose summation order differs).
func (sc *scorer) scoreTable(rows []ShardRow, threshold float64) (dist float64, vec DistanceVector, elided int) {
	// den == 0 (every enabled type has zero weight) makes combineEq3
	// return 1 for every table: nothing to prune, rank on names alone.
	prunable := sc.den > 0 && sc.max > 0 && !math.IsInf(threshold, 1)
	for t := 0; t < int(NumEvidence); t++ {
		if sc.disabled[t] {
			vec[t] = 1
		}
	}
	var partial float64 // Σ (w_t·vec_t)² over aggregated components
	for i, t := range sc.cascade {
		// Bound check before aggregating component i, over the i
		// components already in partial — so a prune always elides at
		// least this component's evaluation (a "prune" after the last
		// component would save nothing and is skipped).
		if prunable && i > 0 {
			bound := math.Sqrt(partial/sc.den) / math.Sqrt(sc.max/sc.den)
			if bound > 1 {
				bound = 1
			}
			bound *= 1 - plannerMargin
			if bound > threshold {
				return 0, vec, len(sc.cascade) - i
			}
		}
		var num, den float64
		for r := range rows {
			d := sc.grid.distance(t, &rows[r].Dist)
			w := sc.eq2.weight(int(rows[r].TargetColumn), t, &rows[r].Dist, d)
			num += w * d
			den += w
		}
		if den == 0 {
			// Every row is maximally distant in its distribution; the
			// unweighted mean preserves the (weak) signal.
			for r := range rows {
				num += sc.grid.distance(t, &rows[r].Dist)
			}
			vec[t] = num / float64(len(rows))
		} else {
			vec[t] = num / den
		}
		if prunable {
			w := sc.weights[t]
			partial += (w * vec[t]) * (w * vec[t])
		}
	}
	return combineEq3(sc.weights, sc.disabled, vec), vec, 0
}

// rankTables is the score-and-rank loop of Section III-D, written once
// for the monolith (n pair runs) and the shard merge (n shipped tables):
// it scores the candidate tables in index order, keeps the k best in a
// bounded max-heap by worseness (worst survivor at the root, evicted
// first), and hands each table the root's distance as its pruning
// threshold. rows(i) yields table i's alignment rows; ident(i) its id
// and name, asked for survivors only.
//
// The result is the set a full sort truncated to k would keep, in the
// same (Distance, Name) order: better() is a total order, a pruned
// table is strictly worse than a root that only ever improves, and
// every survivor goes through the same heap steps a plain bounded
// selection would take. That also makes the answer independent of the
// order tables arrive in; only the pruning counters depend on it, and
// scoring sequentially (not across a pool, where the threshold would be
// observed at racy times) keeps them deterministic for a given order.
//
// scored and heap are recycled buffers; the survivors' slots and the
// rank-ordered heap indexes into them come back (grown, on every
// path). A cancelled context aborts between table batches with
// ctx.Err(), never a partial answer.
func (sc *scorer) rankTables(ctx context.Context, n int, rows func(i int) []ShardRow, ident func(i int) (tid int, name string), scored []scoredTable, heap []int32) ([]scoredTable, []int32, PlanStats, error) {
	ps := PlanStats{Enabled: true}
	scored, h := scored[:0], heap[:0]
	for i := 0; i < n; i++ {
		if i%candidateBatch == 0 && ctx.Err() != nil {
			return scored, h, ps, ctx.Err()
		}
		threshold := math.Inf(1)
		if len(h) == sc.k {
			threshold = scored[h[0]].dist
		}
		dist, vec, elided := sc.scoreTable(rows(i), threshold)
		if elided > 0 {
			ps.TablesPruned++
			ps.EvidenceEvalsElided += elided
			continue
		}
		tid, name := ident(i)
		scored = append(scored, scoredTable{tid: tid, src: int32(i), dist: dist, name: name, vec: vec})
		idx := int32(len(scored) - 1)
		if len(h) < sc.k {
			h = append(h, idx)
			siftUp(scored, h, len(h)-1)
		} else if better(&scored[idx], &scored[h[0]]) {
			h[0] = idx
			siftDown(scored, h, 0)
		}
	}
	// Heapsort the survivors: repeatedly move the worst root past the
	// shrinking heap boundary, yielding best-first order in place.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(scored, h[:end], 0)
	}
	return scored, h, ps, nil
}
