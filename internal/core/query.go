package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"d3l/internal/lsh"
	"d3l/internal/stats"
	"d3l/internal/table"
)

// Alignment pairs one target column with its best-related attribute of
// a candidate table, carrying the five evidence distances (one row of a
// Table I-style structure).
type Alignment struct {
	TargetColumn int
	AttrID       int
	CandColumn   int
	Distances    DistanceVector
}

// TableResult is one entry of the top-k answer.
type TableResult struct {
	TableID int
	Name    string
	// Distance is the Eq. 3 scalar (smaller is more related).
	Distance float64
	// Vector is the Eq. 1 aggregate per evidence type.
	Vector DistanceVector
	// Alignments lists the per-target-column attribute alignments.
	Alignments []Alignment
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

// SearchResult carries the ranked answer plus the target profiles, so
// downstream stages (join-path discovery) reuse the profiling work.
type SearchResult struct {
	Target         *table.Table
	TargetProfiles []Profile
	TargetSubject  *Profile // nil when the target has no subject attr
	Ranked         []TableResult
	Stats          SearchStats
	// Plan reports what the plan did for this query: the cascade order,
	// whether the plan was cached, and the pruning counters. It lives
	// outside Stats so Stats alone stays comparable with the shard
	// merge and the naive reference, which count no pruning.
	Plan PlanStats
}

// candidatePair is one (target column, candidate attribute) distance
// vector. tableID caches the candidate's table so the grouping sort
// never re-resolves profiles.
type candidatePair struct {
	targetCol int
	attrID    int
	tableID   int
	dist      DistanceVector
}

// SearchSpec runs the full Section III-D pipeline for one target under
// the per-query parameters of spec, fanning candidate generation out
// across target columns on a worker pool bounded by Options.Parallelism.
// The ranking is deterministic: at any parallelism it is identical to
// the sequential path (candidates are processed in attribute-id order,
// tables are scored in table-id order, and distance ties break by
// name). Cancellation is cooperative: the pipeline checks ctx between
// candidate batches and between table-scoring batches, and a cancelled
// query returns ctx.Err() — never a partial answer. The per-query
// overrides in spec never touch engine state, so concurrent queries
// with different weights or evidence masks do not interfere.
func (e *Engine) SearchSpec(ctx context.Context, target *table.Table, spec QuerySpec) (*SearchResult, error) {
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	view, err := e.resolve(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Profiling the target touches only the immutable hash machinery,
	// so it runs outside the lock and never delays mutations.
	tprofiles := e.ProfileTarget(target)
	var tsubject *Profile
	for i := range tprofiles {
		if tprofiles[i].Subject {
			tsubject = &tprofiles[i]
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.rankProfiled(ctx, target, tprofiles, tsubject, view, e.resolveParallelism(spec.Parallelism))
}

// rankProfiled is the post-profiling half of the pipeline — Gather →
// Score → Rank — and the region the zero-allocation contract covers:
// all intermediate state lives in pooled arenas (see scratch.go), and
// the only heap allocations a steady-state call performs are the ones
// that escape into the returned SearchResult (the ranked slice and the
// k winners' alignment rows). The allocation-budget guard test pins
// this.
func (e *Engine) rankProfiled(ctx context.Context, target *table.Table, tprofiles []Profile, tsubject *Profile, view specView, parallelism int) (*SearchResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()

	qs := e.getQueryScratch()
	defer e.putQueryScratch(qs)

	// Stage timing (see stages.go) is observer-gated: with no observer
	// installed the timer is inert and the pipeline reads no clocks.
	st := e.newStageTimer()

	// Prepare — or fetch from the plan cache — the evidence cascade.
	plan, planCached := e.preparePlan(tprofiles, &view)
	st.lap(StagePlanPrepare)

	// Gather: per target attribute, collect candidates from the four
	// indexes and compute pair distances. Columns are independent, so
	// they fan out across the pool, each into its own arena buffer.
	// No imposed depths: each forest probe tunes itself to the budget.
	pairs, err := e.gatherPairs(ctx, tprofiles, tsubject, &view, parallelism, qs, nil)
	if err != nil {
		return nil, err
	}
	st.lap(StageGather)

	// Score and rank: build the R_t distance distributions backing the
	// Eq. 2 weights (laid out per column while the pair list is still in
	// column order), group the pairs by candidate table — one sort by
	// (table, attribute) plus contiguous-run slicing — and hand the runs
	// to the one score-and-rank loop in ascending table-id order.
	numCols := len(tprofiles)
	var ecdfs *distanceECDFs
	if !view.uniform {
		ecdfs = qs.buildECDFs(numCols)
	}
	qs.runs = groupPairsByTable(pairs, qs.runs)
	runs := qs.runs
	ws := e.getWorkerScratch()
	defer e.putWorkerScratch(ws)
	sc := newScorer(view.k, view.weights, view.disabled, plan.cascade, ecdfs)
	var planStats PlanStats
	qs.scored, qs.top, planStats, err = sc.rankTables(ctx, len(runs),
		func(i int) []Alignment {
			ws.rows = alignRun(ws.rows[:0], pairs[runs[i].start:runs[i].end], numCols, ws)
			return ws.rows
		},
		func(i int) (int, string) { return runs[i].tid, e.lake.Table(runs[i].tid).Name },
		qs.scored, qs.top)
	if err != nil {
		return nil, err
	}
	scored, top := qs.scored, qs.top
	planStats.Order, planStats.Cached = plan.order, planCached
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
			Alignments: e.alignments(nil, pairs[run.start:run.end], numCols, ws),
		}
	}
	st.lap(StageRankMerge)
	return &SearchResult{
		Target:         target,
		TargetProfiles: tprofiles,
		TargetSubject:  tsubject,
		Ranked:         results,
		Stats: SearchStats{
			CandidatePairs: len(pairs),
			TablesScored:   len(runs),
		},
		Plan: planStats,
	}, nil
}

// alignRun is the alignment decision for one table's pair run: for
// every target column with candidates in the run, the pair with the
// smallest mean distance wins (ties towards the smaller attribute id —
// a candidate attribute may serve several target columns, as in the
// paper's Table I). It appends one row per aligned target column,
// ascending, to dst; a nil dst is allocated at exactly the aligned
// count. CandColumn is left for alignments to fill: scoring does not
// read it, and looking it up costs a cache miss per row.
func alignRun(dst []Alignment, tablePairs []candidatePair, numCols int, ws *workerScratch) []Alignment {
	best, mark, epoch := ws.bestEpoch(numCols)
	aligned := 0
	for i := range tablePairs {
		p := &tablePairs[i]
		c := p.targetCol
		if mark[c] != epoch {
			mark[c] = epoch
			best[c] = int32(i)
			aligned++
			continue
		}
		cur := &tablePairs[best[c]]
		pm, cm := p.dist.Mean(), cur.dist.Mean()
		if pm < cm || (pm == cm && p.attrID < cur.attrID) {
			best[c] = int32(i)
		}
	}
	if dst == nil {
		dst = make([]Alignment, 0, aligned)
	}
	for c := 0; c < numCols; c++ {
		if mark[c] != epoch {
			continue
		}
		p := &tablePairs[best[c]]
		dst = append(dst, Alignment{TargetColumn: c, AttrID: p.attrID, Distances: p.dist})
	}
	return dst
}

// alignments builds the alignment rows of one table that escape into an
// answer: the very rows alignRun scored, with each candidate attribute's
// column resolved — so scores and reported alignments can never drift
// apart. The rows are appended to dst: nil for a top-k winner (a fresh
// slice of exactly its rows), the partial's row slab for a shard gather.
func (e *Engine) alignments(dst []Alignment, tablePairs []candidatePair, numCols int, ws *workerScratch) []Alignment {
	start := len(dst)
	dst = alignRun(dst, tablePairs, numCols, ws)
	for i := start; i < len(dst); i++ {
		dst[i].CandColumn = e.profiles[dst[i].AttrID].Ref.Column
	}
	return dst
}

// gatherPairs performs the index lookups of Section III-D: for each
// target attribute, each index contributes candidates, and every
// distinct candidate gets a full distance vector. Columns fan out
// across the worker pool into per-column arena buffers; within a
// column candidates are processed in ascending attribute-id order,
// which (together with the per-column buffers) makes the pair list
// identical at any parallelism. Cancellation is checked between
// columns and between candidate batches inside each column, and a
// cancelled or failed gather returns the error, never a partial list.
// Callers must hold e.mu. The returned slice is arena memory, valid
// until the arena is recycled.
func (e *Engine) gatherPairs(ctx context.Context, tprofiles []Profile, tsubject *Profile, view *specView, parallelism int, qs *queryScratch, depths probeDepths) ([]candidatePair, error) {
	n := len(tprofiles)
	qs.ensureCols(n)
	if err := forEachIndexCtx(ctx, n, parallelism, func(col int) {
		qs.colBufs[col], qs.colErrs[col] = e.gatherColumn(ctx, col, &tprofiles[col], tsubject, view, qs.colBufs[col], depths)
	}); err != nil {
		return nil, err
	}
	for _, err := range qs.colErrs[:n] {
		if err != nil {
			return nil, err
		}
	}
	flat := qs.flat[:0]
	for _, colPairs := range qs.colBufs[:n] {
		flat = append(flat, colPairs...)
	}
	qs.flat = flat
	return flat, nil
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
// id within one), the one dedup uses the epoch-stamped visited array
// instead of a per-call map, and the distance memo compares each
// distinct candidate signature with the column's once. A forest error or
// a cancelled context ends the column with that error and no pairs.
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
	// Dedup: stamp each attribute id on first sight, then sort the
	// survivors so candidates are processed in ascending attribute-id
	// order (the determinism contract).
	visited, epoch := ws.visitedEpoch(len(e.profiles))
	uniq := ids[:0]
	for _, id := range ids {
		if visited[id] != epoch {
			visited[id] = epoch
			uniq = append(uniq, id)
		}
	}
	slices.Sort(uniq)
	for n, id := range uniq {
		if n%candidateBatch == 0 {
			if err := ctx.Err(); err != nil {
				return dst[:0], err
			}
		}
		cand := &e.profiles[id]
		e.assertInterned(cand, "gatherColumn")
		var candSubject *Profile
		if s := e.subjects[cand.Ref.TableID]; s >= 0 {
			candSubject = &e.profiles[s]
		}
		d := e.pairDistances(tp, cand, tsubject, candSubject, view.disabled, &ws.memo)
		dst = append(dst, candidatePair{targetCol: col, attrID: int(id), tableID: cand.Ref.TableID, dist: d})
	}
	return dst, nil
}

// distanceECDFs holds, per target column and evidence type, the sorted
// sample of the R_t distribution (all distances of that type between
// the target attribute and its lake candidates) whose ECDF backs the
// Eq. 2 weights, laid out flat: cell col*NumEvidence+t. An empty cell
// means "no distribution". A shard partial's Samples are the same
// cells restricted to one shard.
type distanceECDFs struct {
	cols  int
	cells [][]float64
}

// sampleCells builds the per-(column, evidence) sorted samples into the
// arena: one pass lays every cell out contiguously in the recycled
// sample buffer (the pair list is still in column order at this point,
// so a cell's samples are a strided read of one column's pairs) and
// sorts each region in place — no per-cell allocations.
func (qs *queryScratch) sampleCells(numCols int) [][]float64 {
	total := 0
	for c := 0; c < numCols; c++ {
		total += len(qs.colBufs[c])
	}
	if cap(qs.samples) < total*int(NumEvidence) {
		qs.samples = make([]float64, 0, total*int(NumEvidence))
	}
	buf := qs.samples[:0]
	cells := qs.cells[:0]
	for c := 0; c < numCols; c++ {
		colPairs := qs.colBufs[c]
		for t := 0; t < int(NumEvidence); t++ {
			start := len(buf)
			for i := range colPairs {
				buf = append(buf, colPairs[i].dist[t])
			}
			region := buf[start:]
			slices.Sort(region)
			cells = append(cells, region)
		}
	}
	qs.samples = buf
	qs.cells = cells
	return cells
}

// buildECDFs wraps the arena's sample cells as the query's Eq. 2
// distributions.
func (qs *queryScratch) buildECDFs(numCols int) *distanceECDFs {
	qs.ecdfs = distanceECDFs{cols: numCols, cells: qs.sampleCells(numCols)}
	return &qs.ecdfs
}

// weight returns the Eq. 2 weight 1 − P(d ≤ D) for a distance of type t
// observed for the given target column. With no distribution (or in the
// uniform-weighting ablation, where the receiver is nil) the weight
// falls back to the complementary distance (closer pairs weigh more) or
// to 1 respectively.
func (d *distanceECDFs) weight(col int, t Evidence, dist float64) float64 {
	if d == nil {
		return 1
	}
	if col < d.cols {
		if e := stats.ECDFOf(d.cells[col*int(NumEvidence)+int(t)]); e.Len() > 0 {
			// Evaluate strictly below dist: the CCDF at the smallest
			// observed distance must stay positive or Eq. 1 zeroes out
			// exactly the strongest signals.
			return e.CCDF(dist - 1e-12)
		}
	}
	return 1 - dist
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
