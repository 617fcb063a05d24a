package core

import (
	"context"
	"fmt"
	"math"

	"d3l/internal/lsh"
	"d3l/internal/par"
	"d3l/internal/table"
)

// Alignment pairs one target column with its best-related attribute of
// a candidate table, carrying the five evidence distances (one row of a
// Table I-style structure).
type Alignment struct {
	TargetColumn int            `json:"targetColumn"`
	AttrID       int            `json:"attrId"`
	CandColumn   int            `json:"candColumn"`
	Distances    DistanceVector `json:"distances"`
}

// TableResult is one entry of the top-k answer.
type TableResult struct {
	TableID int    `json:"tableId"`
	Name    string `json:"name"`
	// Distance is the Eq. 3 scalar (smaller is more related).
	Distance float64 `json:"distance"`
	// Vector is the Eq. 1 aggregate per evidence type.
	Vector DistanceVector `json:"vector"`
	// Alignments lists the per-target-column attribute alignments.
	Alignments []Alignment `json:"alignments"`
}

// SearchStats summarises the work one query did — deterministic
// counters (identical at any parallelism), so they are safe to cache
// and to expose on the wire.
type SearchStats struct {
	// CandidatePairs counts the (target column, candidate attribute)
	// distance vectors computed in the gathering phase.
	CandidatePairs int
	// TablesScored counts the candidate tables scored before the
	// top-k cut.
	TablesScored int
}

// SearchResult carries the ranked answer plus the prepared target, so
// downstream stages (join-path discovery) reuse the profiling work.
type SearchResult struct {
	Target *Target
	Ranked []TableResult
	Stats  SearchStats
	// Plan reports what the plan did for this query: the cascade order,
	// whether the plan was cached, and the pruning counters. It lives
	// outside Stats so Stats alone stays comparable with the shard
	// merge and the naive reference, which count no pruning.
	Plan PlanStats
}

// candidatePair is one (target column, candidate attribute) distance
// vector, coded on the engine's grid. tableID caches the candidate's
// table so the grouping never re-resolves profiles.
type candidatePair struct {
	targetCol int
	attrID    int
	tableID   int
	dist      CodedDistances
}

// SearchSpec runs the full Section III-D pipeline for one target under
// the per-query parameters of spec: Prepare, then Search.
func (e *Engine) SearchSpec(ctx context.Context, t *table.Table, spec QuerySpec) (*SearchResult, error) {
	target, err := e.Prepare(t)
	if err != nil {
		return nil, err
	}
	return e.Search(ctx, target, spec)
}

// Search ranks the lake for a prepared target — Gather → Score → Rank —
// fanning candidate generation out across target columns on a worker
// pool bounded by Options.Parallelism. The ranking is deterministic: at
// any parallelism it is identical to the sequential path (candidates
// are processed in attribute-id order, tables are scored in table-id
// order, and distance ties break by name). Cancellation is cooperative:
// the pipeline checks ctx between candidate batches and between
// table-scoring batches, and a cancelled query returns ctx.Err() —
// never a partial answer. The per-query overrides in spec never touch
// engine state, so concurrent queries with different weights or
// evidence masks do not interfere.
//
// Search is the region the zero-allocation contract covers: all
// intermediate state lives in pooled arenas (see scratch.go), and the
// only heap allocations a steady-state call performs are the ones that
// escape into the returned SearchResult (the ranked slice and the k
// winners' alignment rows). The allocation-budget guard test pins this.
func (e *Engine) Search(ctx context.Context, target *Target, spec QuerySpec) (*SearchResult, error) {
	view, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parallelism := e.queryParallelism()

	e.mu.RLock()
	defer e.mu.RUnlock()

	qs := e.getQueryScratch()
	defer e.putQueryScratch(qs)

	// Stage timing (see stages.go) is observer-gated: with no observer
	// installed the timer is inert and the pipeline reads no clocks.
	st := e.newStageTimer()

	// Prepare the evidence cascade: the mask's plan, built on first use.
	plan := e.preparePlan(&view)
	st.lap(StagePlanPrepare)

	// Gather: per target attribute, collect candidates from the four
	// indexes and compute pair distances. Columns are independent, so
	// they fan out across the pool, each into its own arena buffer.
	// No imposed depths: each forest probe tunes itself to the budget.
	if err := e.gatherPairs(ctx, target, &view, parallelism, qs, nil); err != nil {
		return nil, err
	}
	st.lap(StageGather)

	// Score and rank: count the R_t distance distributions backing the
	// Eq. 2 weights from the per-column buffers, group the pairs by
	// candidate table — a counting pass and a scatter, no sort — and
	// hand the runs to the one score-and-rank loop in ascending table-id
	// order.
	numCols := len(target.profiles)
	var eq2 *eq2Weights
	if !view.uniform {
		qs.eq2.reset(e.grid, numCols)
		qs.eq2.count(qs.colBufs[:numCols])
		qs.eq2.finish()
		eq2 = &qs.eq2
	}
	pairs := qs.groupByTable(numCols, e.lake.Len())
	runs := qs.runs
	sc := newScorer(view.k, view.weights, view.disabled, plan.cascade, e.grid, eq2)
	var planStats PlanStats
	qs.scored, qs.top, planStats, err = sc.rankTables(ctx, len(runs),
		func(i int) []ShardRow {
			qs.rows = alignRun(qs.rows[:0], pairs[runs[i].start:runs[i].end], e.grid)
			return qs.rows
		},
		func(i int) (int, string) { return runs[i].tid, e.lake.Table(runs[i].tid).Name },
		qs.scored, qs.top)
	if err != nil {
		return nil, err
	}
	scored, top := qs.scored, qs.top
	planStats.Order = plan.order
	planStats.PairsPruned = len(pairs)
	for i := range scored {
		run := runs[scored[i].src]
		planStats.PairsPruned -= int(run.end - run.start)
	}
	e.planStats.tablesPruned.Add(int64(planStats.TablesPruned))
	e.planStats.pairsPruned.Add(int64(planStats.PairsPruned))
	e.planStats.evidenceElided.Add(int64(planStats.EvidenceEvalsElided))
	st.lap(StageScore)

	// Alignment rows are materialised for the winners alone.
	results := make([]TableResult, len(top))
	for i, idx := range top {
		s := &scored[idx]
		run := runs[s.src]
		results[i] = TableResult{
			TableID:    s.tid,
			Name:       s.name,
			Distance:   s.dist,
			Vector:     s.vec,
			Alignments: e.grid.alignments(e.alignRows(qs.rows[:0], pairs[run.start:run.end])),
		}
	}
	st.lap(StageRankMerge)
	return &SearchResult{
		Target: target,
		Ranked: results,
		Stats: SearchStats{
			CandidatePairs: len(pairs),
			TablesScored:   len(runs),
		},
		Plan: planStats,
	}, nil
}

// alignRun is the alignment decision for one table's pair run, laid
// out by groupByTable: by target column, each column's pairs in
// ascending attribute id. For every target column with candidates in
// the run, the pair with the smallest mean distance wins (ties towards
// the smaller attribute id, the first seen — a candidate attribute may
// serve several target columns, as in the paper's Table I). It appends
// one row per aligned target column, ascending, to dst. CandColumn is
// left for alignRows to fill: scoring does not read it, and looking it
// up costs a cache miss per row.
func alignRun(dst []ShardRow, tablePairs []candidatePair, g *distanceGrid) []ShardRow {
	for i := 0; i < len(tablePairs); {
		best := &tablePairs[i]
		bestMean := g.vector(&best.dist).mean()
		for i++; i < len(tablePairs) && tablePairs[i].targetCol == best.targetCol; i++ {
			if m := g.vector(&tablePairs[i].dist).mean(); m < bestMean {
				best, bestMean = &tablePairs[i], m
			}
		}
		dst = append(dst, ShardRow{TargetColumn: int32(best.targetCol), AttrID: int32(best.attrID), Dist: best.dist})
	}
	return dst
}

// alignRows appends the alignment rows of one table that leave the
// scorer — a winner's, a shard gather's — to dst: the very rows alignRun
// scored, with each candidate attribute's column resolved, so scores and
// reported alignments can never drift apart.
func (e *Engine) alignRows(dst []ShardRow, tablePairs []candidatePair) []ShardRow {
	start := len(dst)
	dst = alignRun(dst, tablePairs, e.grid)
	for i := start; i < len(dst); i++ {
		dst[i].CandColumn = int32(e.attrs[dst[i].AttrID].column)
	}
	return dst
}

// alignments expands rows to the alignment rows of an answer, in a
// slice of their own.
func (g *distanceGrid) alignments(rows []ShardRow) []Alignment {
	out := make([]Alignment, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = Alignment{
			TargetColumn: int(r.TargetColumn),
			AttrID:       int(r.AttrID),
			CandColumn:   int(r.CandColumn),
			Distances:    g.vector(&r.Dist),
		}
	}
	return out
}

// gatherPairs performs the index lookups of Section III-D: for each
// target attribute, each index contributes candidates, and every
// distinct candidate gets a full distance vector. Columns fan out
// across the worker pool into per-column arena buffers; within a
// column candidates are processed in ascending attribute-id order,
// which (together with the per-column buffers) makes the pairs in
// qs.colBufs identical at any parallelism. Cancellation is checked
// between columns and between candidate batches inside each column, and
// a cancelled or failed gather returns the error, never a partial list.
// Callers must hold e.mu.
func (e *Engine) gatherPairs(ctx context.Context, target *Target, view *specView, parallelism int, qs *queryScratch, depths probeDepths) error {
	n := len(target.profiles)
	for len(qs.colBufs) < n {
		qs.colBufs = append(qs.colBufs, nil)
	}
	return par.For(ctx, n, parallelism, nil, func(_ struct{}, col int) (err error) {
		qs.colBufs[col], err = e.gatherColumn(ctx, col, &target.profiles[col], target.subject, view, qs.colBufs[col], depths)
		return err
	})
}

// candidateBatch is how many pair-distance computations (or table
// scorings) run between cancellation checks: small enough that a
// cancelled query releases its worker within microseconds, large enough
// that the check is free next to the distance arithmetic.
const candidateBatch = 64

// forestProbe is one row of a target column's probe table: the forest
// to look up and the signature to look it up with. A nil forest means
// the column skips that index.
type forestProbe struct {
	forest *lsh.Forest
	sig    []uint32
}

// probeTable decides, for one target column under the resolved evidence
// mask, which of the four indexes of Algorithm 1 are probed with which
// signature: those the column would be indexed in (forestSigs), less the
// masked ones. Every engine derives the same table from the same
// profile, so the shards of a set agree on it without talking. The
// embedding signature is expanded into ws.evals, valid until the next
// call.
func (e *Engine) probeTable(tp *Profile, disabled *[NumEvidence]bool, ws *workerScratch) [numForestSlots]forestProbe {
	var pt [numForestSlots]forestProbe
	for slot, sig := range forestSigs(tp, &ws.evals) {
		if sig != nil && !disabled[slotEvidence[slot]] {
			pt[slot] = forestProbe{e.forests[slot], sig}
		}
	}
	return pt
}

// probeDepths is how a gather decides each probe's stop depth. With no
// depths (nil) every forest tunes itself: one walk, then the stop rule
// on its own per-depth counts (lsh.Forest.Probe) — the monolith. A shard
// collects at the depths the coordinator imposed, which are that same
// stop rule applied to the counts summed over all shards (see
// MergeProbeDepths).
type probeDepths [][NumForestSlots]int32

// probe appends one forest's candidate region to ids: distinct under
// self-tuning (Probe dedups on its walk), raw under an imposed depth
// (an id once per matching tree) — gatherColumn dedups the union of the
// four regions either way.
func (m probeDepths) probe(p forestProbe, budget int, ids []int32, col, slot int, s *lsh.DepthScratch) ([]int32, error) {
	imposed := m != nil
	if imposed && (p.forest == nil) != (m[col][slot] == 0) {
		return ids, fmt.Errorf("core: depth directive disagrees with probe shape (col %d, slot %d)", col, slot)
	}
	if p.forest == nil {
		return ids, nil
	}
	if imposed {
		return p.forest.CollectMinDepth(p.sig, int(m[col][slot]), ids)
	}
	ids, _, err := p.forest.Probe(p.sig, budget, ids, s)
	return ids, err
}

// gatherColumn collects the deduplicated candidate set of one target
// column from the probe table's forests and computes the pair
// distances, appending them to dst (arena memory — the column's
// recycled pair buffer). Candidate-set state lives on worker scratch:
// the forests append into the recycled probe buffer (regions are
// unordered, overlap across forests, and under imposed depths repeat an
// id within one), the one dedup sets a bit per id in the candidate
// bitset and reads the set back in ascending order, and the distance
// memo compares each distinct candidate signature with the column's
// once. A forest error or a cancelled context ends the column with that
// error and no pairs.
func (e *Engine) gatherColumn(ctx context.Context, col int, tp *Profile, tsubject *Profile, view *specView, dst []candidatePair, depths probeDepths) ([]candidatePair, error) {
	dst = dst[:0]
	ws := e.getWorkerScratch()
	defer e.putWorkerScratch(ws)
	ws.memo.reset()
	ids := ws.ids[:0]
	var err error
	for slot, p := range e.probeTable(tp, &view.disabled, ws) {
		if ids, err = depths.probe(p, view.budget, ids, col, slot, &ws.depths); err != nil {
			return dst, err
		}
	}
	ws.ids = ids
	// Dedup, in ascending attribute-id order (the determinism contract).
	uniq := ws.distinct(ids, len(e.attrs))
	for n, id := range uniq {
		if n%candidateBatch == 0 {
			if err := ctx.Err(); err != nil {
				return dst[:0], err
			}
		}
		d := e.pairDistances(tp, tsubject, int(id), view.disabled, &ws.memo)
		dst = append(dst, candidatePair{targetCol: col, attrID: int(id), tableID: int(e.attrs[id].table), dist: d})
	}
	return dst, nil
}

// combineEq3 reduces the 5-vector to the scalar relatedness distance
// with the given weights: sqrt(Σ(w_t·d_t)² / Σw_t), normalised by its
// maximum attainable value (the all-ones vector) so the result stays in
// [0, 1] for any weight magnitudes — Eq. 3 as written is unbounded when
// some w_t > 1, and learned coefficients routinely are.
func combineEq3(weights Weights, disabled [NumEvidence]bool, vec DistanceVector) float64 {
	var num, den, max float64
	for t := 0; t < int(NumEvidence); t++ {
		w := weights[t]
		if disabled[t] {
			w = 0
		}
		num += (w * vec[t]) * (w * vec[t])
		max += w * w
		den += w
	}
	if den == 0 || max == 0 {
		return 1
	}
	d := math.Sqrt(num/den) / math.Sqrt(max/den)
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}
