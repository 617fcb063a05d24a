package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"d3l/internal/lsh"
	"d3l/internal/table"
)

// This file is the engine half of the sharded scatter-gather protocol.
// A shard set partitions the lake's tables across N engines that share
// one id space (see WriteIDs in mutate.go): every table and attribute
// lives on its owning shard under the id the monolith would have given
// it, and the ids a shard does not own are dead fill slots or lie past
// its end. Under that invariant a top-k query decomposes exactly:
//
//   probe   — every shard reports, per (target column, forest), the
//             per-depth distinct candidate counts of its forest
//             (lsh.Forest.DepthCounts). Counts are additive across
//             shards because the shards index disjoint attribute sets,
//             so summing them recovers the monolithic forest's counts.
//   depths  — the coordinator applies the forest's stop rule
//             (lsh.StopDepth) to the summed counts: the stop depth is
//             the largest depth whose global count meets the candidate
//             budget (else 1). This is the only part of the pipeline
//             that needs global knowledge the shards lack.
//   gather  — every shard runs the monolith's own gather (gatherPairs)
//             with the probe step collecting at the imposed depths
//             (lsh.Forest.CollectMinDepth, raw: the gather's own dedup
//             is the only one) instead of descending locally: same
//             probe table, same dedup, same pair distances. It then
//             selects each owned table's best pair per target column (a
//             wholly table-local decision) and ships the counts of the
//             per-(column, evidence) distance distributions that back
//             the Eq. 2 weights (eq2.go).
//   merge   — the coordinator adds the shards' counts up (equal
//             multiset in, identical weights out) and runs the
//             monolith's own score-and-rank loop (rankTables) over the
//             shipped best-pair rows, cascade pruning included. Because
//             (Distance, Name) is a total order and names are unique
//             across the set, the merged ranking is byte-identical to
//             the monolith's at any shard count.
//
// So the monolith is the one-shard case with the depth search done
// locally: lsh.Forest.Probe is the probe's walk (the one DepthCounts
// reports from) followed by the depths' stop rule on that one forest's
// counts, and gather, score and rank are the same code.

// NumForestSlots is the number of per-column forest probes a query can
// make (the name/value/format/embedding indexes), exported for the
// shard wire types.
const NumForestSlots = numForestSlots

// ShardQueryMeta is the resolved query shape a probe ran with. Every
// shard resolves the same QuerySpec, so the metas must agree verbatim;
// the coordinator validates that and then scores with these values. The
// sketch widths and the seed are the shard's own: they fix the grid its
// distances are coded on, and replicas built with other ones are
// refused by name rather than merged.
type ShardQueryMeta struct {
	NumCols     int
	K           int
	Budget      int
	Disabled    [NumEvidence]bool
	Weights     Weights
	Uniform     bool
	MinHashSize int
	EmbedBits   int
	Seed        uint64
}

// ShardProbe is one shard's answer to the probe phase: per target
// column and forest slot, the per-depth distinct candidate counts
// (index d-1 holds depth d; nil when the probe is skipped for this
// column — evidence disabled, numeric column, zero embedding).
type ShardProbe struct {
	Meta   ShardQueryMeta
	Counts [][NumForestSlots][]int32
}

// ShardDepths is the coordinator's depth directive: the stop depth per
// (target column, forest slot) the monolith's descent would have used,
// 0 where the probe is skipped.
type ShardDepths struct {
	Meta   ShardQueryMeta
	Depths [][NumForestSlots]int32
}

// ShardTable is one candidate table's contribution to the gather
// phase: its best-pair alignment rows, one per target column with
// candidates, ascending by target column — exactly the rows the
// monolith scores for this table.
type ShardTable struct {
	TableID int
	Name    string
	Rows    []ShardRow
}

// ShardRow is one alignment row as it is scored and shipped: the
// target column, the candidate attribute and its column, and the pair's
// distances coded on the grid of the meta's widths.
type ShardRow struct {
	TargetColumn int32
	AttrID       int32
	CandColumn   int32
	Dist         CodedDistances
}

// ShardPartial is one shard's answer to the gather phase.
type ShardPartial struct {
	Meta ShardQueryMeta
	// PairCount and TableCount are this shard's contribution to the
	// deterministic SearchStats counters.
	PairCount  int
	TableCount int
	// Dists holds, per target column, the shard's share of the
	// distributions behind the Eq. 2 weights; nil when the query runs
	// uniform weighting.
	Dists []ColumnDists
	// Tables lists this shard's candidate tables in ascending table-id
	// order.
	Tables []ShardTable
}

// ColumnDists is one target column's five distance distributions over
// a shard's candidate pairs, each pair one sample in every cell, so the
// five cells count the same n and the columns' n add up to PairCount.
type ColumnDists struct {
	// Coded holds N, V, F and E: the codes that occur, ascending, each
	// with its sample count.
	Coded [NumCoded][]CodeCount
	// Domain holds D: its distinct values, ascending strictly in the
	// order slices.Sort gives float64s, each with its sample count.
	Domain []DomainRun
}

// CodeCount is one code of a coded distribution and its sample count.
type CodeCount struct {
	Code  uint16
	Count int32
}

// DomainRun is one D value of a distribution and its sample count.
type DomainRun struct {
	Value float64
	Count int32
}

// shardMeta is the query shape a resolved view gives a prepared target
// on this engine.
func (e *Engine) shardMeta(view *specView, numCols int) ShardQueryMeta {
	return ShardQueryMeta{
		NumCols:     numCols,
		K:           view.k,
		Budget:      view.budget,
		Disabled:    view.disabled,
		Weights:     view.weights,
		Uniform:     view.uniform,
		MinHashSize: e.opts.MinHashSize,
		EmbedBits:   e.opts.EmbedBits,
		Seed:        e.opts.Seed,
	}
}

// sameGrid refuses the meta of shard i when it was built with other
// sketch widths or another seed than shard 0: its signatures and codes
// mean something else, and merging them would rank on noise.
func sameGrid(i int, got, want *ShardQueryMeta) error {
	if got.MinHashSize != want.MinHashSize || got.EmbedBits != want.EmbedBits || got.Seed != want.Seed {
		return fmt.Errorf("core: shard %d sketches with MinHashSize %d, EmbedBits %d and seed %#x, shard 0 with MinHashSize %d, EmbedBits %d and seed %#x",
			i, got.MinHashSize, got.EmbedBits, got.Seed, want.MinHashSize, want.EmbedBits, want.Seed)
	}
	return nil
}

// ShardProbeSpec runs the probe phase for one query on this shard:
// Prepare, then ShardProbe.
func (e *Engine) ShardProbeSpec(ctx context.Context, t *table.Table, spec QuerySpec) (*ShardProbe, error) {
	target, err := e.Prepare(t)
	if err != nil {
		return nil, err
	}
	return e.ShardProbe(ctx, target, spec)
}

// ShardProbe runs the probe phase over a prepared target: resolve the
// spec and report the per-depth candidate counts of every enabled
// forest probe. One Target serves every identically configured shard
// and both phases of the query.
func (e *Engine) ShardProbe(ctx context.Context, target *Target, spec QuerySpec) (*ShardProbe, error) {
	view, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tprofiles := target.profiles
	e.mu.RLock()
	defer e.mu.RUnlock()
	probe := &ShardProbe{
		Meta:   e.shardMeta(&view, len(tprofiles)),
		Counts: make([][NumForestSlots][]int32, len(tprofiles)),
	}
	ws := e.getWorkerScratch()
	defer e.putWorkerScratch(ws)
	for col := range tprofiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for slot, p := range e.probeTable(&tprofiles[col], &view.disabled, ws) {
			if p.forest == nil {
				continue
			}
			if probe.Counts[col][slot], err = p.forest.DepthCounts(p.sig, &ws.depths); err != nil {
				return nil, err
			}
		}
	}
	return probe, nil
}

// MergeProbeDepths validates that every shard probed the same query
// shape and applies the forest's self-tuning stop rule (lsh.StopDepth,
// the one the monolith's probe applies to its own counts) to the summed
// per-depth counts: for each (column, slot) the stop depth is the
// largest depth whose global distinct count reaches the candidate
// budget, or 1 when none does — exactly where the monolithic forest's
// probe would have stopped.
func MergeProbeDepths(probes []*ShardProbe) (*ShardDepths, error) {
	if len(probes) == 0 {
		return nil, fmt.Errorf("core: no shard probes to merge")
	}
	meta := probes[0].Meta
	for i, p := range probes {
		if err := sameGrid(i, &p.Meta, &meta); err != nil {
			return nil, err
		}
		if p.Meta != meta {
			return nil, fmt.Errorf("core: shard %d probed a different query shape", i)
		}
		if len(p.Counts) != meta.NumCols {
			return nil, fmt.Errorf("core: shard %d probed %d columns, want %d", i, len(p.Counts), meta.NumCols)
		}
	}
	out := &ShardDepths{Meta: meta, Depths: make([][NumForestSlots]int32, meta.NumCols)}
	var sum []int64
	for col := 0; col < meta.NumCols; col++ {
		for slot := 0; slot < NumForestSlots; slot++ {
			ref := probes[0].Counts[col][slot]
			for i, p := range probes {
				c := p.Counts[col][slot]
				if (c == nil) != (ref == nil) || len(c) != len(ref) {
					return nil, fmt.Errorf("core: shard %d disagrees on probe (col %d, slot %d)", i, col, slot)
				}
			}
			if ref == nil {
				continue // skipped probe; depth stays 0
			}
			h := len(ref)
			sum = slices.Grow(sum[:0], h)[:h]
			clear(sum)
			for _, p := range probes {
				for d := range p.Counts[col][slot] {
					sum[d] += int64(p.Counts[col][slot][d])
				}
			}
			out.Depths[col][slot] = int32(lsh.StopDepth(sum, meta.Budget))
		}
	}
	return out, nil
}

// ShardGatherSpec runs the gather phase on this shard at the imposed
// depths: Prepare, then ShardGather.
func (e *Engine) ShardGatherSpec(ctx context.Context, t *table.Table, spec QuerySpec, depths *ShardDepths) (*ShardPartial, error) {
	target, err := e.Prepare(t)
	if err != nil {
		return nil, err
	}
	return e.ShardGather(ctx, target, spec, depths)
}

// ShardGather runs the gather phase over a prepared target at the
// imposed depths: the shared gather on the pooled query arena, then
// per-table best-pair rows and the Eq. 2 counts. The resolved
// view must match the directive's meta — a mismatch means the spec is
// not the one the probe ran. Like a
// monolith query it stops within a candidate batch of ctx being
// cancelled and returns ctx.Err(), never a partial.
func (e *Engine) ShardGather(ctx context.Context, target *Target, spec QuerySpec, depths *ShardDepths) (*ShardPartial, error) {
	view, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	numCols := len(target.profiles)
	meta := e.shardMeta(&view, numCols)
	// Deliberately not ErrInvalidSpec: the spec was valid, so a directive
	// that disagrees with it can mean this shard's options drifted from
	// its peers', and the 500 it is served as has a coordinator retry a
	// sibling replica, where a 400 would end the query.
	if meta != depths.Meta {
		return nil, fmt.Errorf("core: gather query shape disagrees with the depth directive")
	}
	if len(depths.Depths) != numCols {
		return nil, fmt.Errorf("core: depth directive covers %d columns, target has %d", len(depths.Depths), numCols)
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	qs := e.getQueryScratch()
	defer e.putQueryScratch(qs)
	st := e.newStageTimer()

	// Columns are gathered one after another: the shards of a set
	// already run side by side, so a second level of fan-out would only
	// oversubscribe the cores they share.
	if err := e.gatherPairs(ctx, target, &view, 1, qs, depths.Depths); err != nil {
		return nil, err
	}
	st.lap(StageGather)
	pairs := qs.groupByTable(numCols, e.lake.Len())

	// The partial leaves the arena in slabs: the distributions' (see
	// export) and one of rows, whose tables are three-index sub-slices of
	// it, so an append to one cannot reach into the next.
	partial := &ShardPartial{Meta: meta, PairCount: len(pairs)}
	if !view.uniform {
		qs.eq2.reset(e.grid, numCols)
		qs.eq2.count(qs.colBufs[:numCols])
		partial.Dists = qs.eq2.export()
	}
	partial.TableCount = len(qs.runs)
	partial.Tables = make([]ShardTable, len(qs.runs))
	// A table has at most one row per pair and per target column.
	rows := make([]ShardRow, 0, min(len(pairs), len(qs.runs)*numCols))
	for i, run := range qs.runs {
		start := len(rows)
		rows = e.alignRows(rows, pairs[run.start:run.end])
		partial.Tables[i] = ShardTable{
			TableID: run.tid,
			Name:    e.lake.Table(run.tid).Name,
			Rows:    rows[start:len(rows):len(rows)],
		}
	}
	return partial, nil
}

// MergeShardPartials runs the coordinator's merge phase: rebuild the
// global Eq. 2 distributions from the shards' counts, then score and
// rank the shipped tables with the monolith's own loop. The returned
// ranking and stats are byte-identical to the monolith's answer for the
// same query.
func MergeShardPartials(depths *ShardDepths, partials []*ShardPartial) ([]TableResult, SearchStats, error) {
	ranked, st, _, err := mergeShardPartials(depths, partials)
	return ranked, st, err
}

// mergeShardPartials is MergeShardPartials plus the merge's pruning
// counters, which no caller outside the tests reads.
func mergeShardPartials(depths *ShardDepths, partials []*ShardPartial) ([]TableResult, SearchStats, PlanStats, error) {
	var st SearchStats
	if len(partials) == 0 {
		return nil, st, PlanStats{}, fmt.Errorf("core: no shard partials to merge")
	}
	meta := depths.Meta
	numCols := meta.NumCols
	pairs := 0
	for i, p := range partials {
		if err := sameGrid(i, &p.Meta, &meta); err != nil {
			return nil, st, PlanStats{}, err
		}
		if p.Meta != meta {
			return nil, st, PlanStats{}, fmt.Errorf("core: shard %d gathered a different query shape", i)
		}
		// The scorer indexes the distributions by a row's target column
		// and the grid by its codes, and divides by a table's row count:
		// a partial is checked here, whichever way it arrived, before any
		// of it can go wrong.
		if err := p.validate(); err != nil {
			return nil, st, PlanStats{}, fmt.Errorf("shard %d: %w", i, err)
		}
		if pairs += p.PairCount; pairs > math.MaxInt32 {
			return nil, st, PlanStats{}, fmt.Errorf("core: the shards' partials count more than %d pairs", math.MaxInt32)
		}
	}
	grid, err := gridFor(meta.MinHashSize, meta.EmbedBits)
	if err != nil {
		return nil, st, PlanStats{}, err
	}

	ms := mergeScratchPool.Get().(*mergeScratch)
	defer ms.release()

	// Global Eq. 2 distributions: the monolith's cells count every pair
	// of every shard, so they are the sums of the shards' counts.
	var eq2 *eq2Weights
	if !meta.Uniform {
		ms.eq2.reset(grid, numCols)
		ms.heads = ms.eq2.merge(partials, ms.heads)
		ms.eq2.finish()
		eq2 = &ms.eq2
	}

	// Tables are disjoint across shards (each is owned by exactly one)
	// and the ranking is a total order, so the concatenation order
	// cannot affect the answer.
	for _, p := range partials {
		st.CandidatePairs += p.PairCount
		st.TablesScored += p.TableCount
	}
	tables := slices.Grow(ms.tables[:0], st.TablesScored)
	for _, p := range partials {
		tables = append(tables, p.Tables...)
	}
	ms.tables = tables
	sc := newScorer(meta.K, meta.Weights, meta.Disabled, planFor(meta.Disabled).cascade, grid, eq2)
	var ps PlanStats
	ms.scored, ms.top, ps, err = sc.rankTables(context.Background(), len(tables),
		func(i int) []ShardRow { return tables[i].Rows },
		func(i int) (int, string) { return tables[i].TableID, tables[i].Name },
		ms.scored, ms.top)
	if err != nil {
		return nil, st, ps, err
	}
	results := make([]TableResult, len(ms.top))
	for i, idx := range ms.top {
		s := &ms.scored[idx]
		results[i] = TableResult{
			TableID:  s.tid,
			Name:     s.name,
			Distance: s.dist,
			Vector:   s.vec,
			// Fresh rows: the answer may sit in a result cache for hours,
			// and must not keep its shard's row slab alive.
			Alignments: grid.alignments(tables[s.src].Rows),
		}
	}
	return results, st, ps, nil
}

// mergeScratch is the merge's counterpart of queryScratch: the merged
// distributions, the run heads of the D cell being merged, the
// concatenated table list, and rankTables' slots and heap. None of it
// escapes into the answer (the winners' rows are copied out), so a
// coordinator at steady state merges into the memory of the query
// before. The merge belongs to no engine, hence a package-level pool.
type mergeScratch struct {
	eq2    eq2Weights
	heads  [][]DomainRun
	tables []ShardTable
	scored []scoredTable
	top    []int32
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// release returns the scratch to the pool holding capacity only: what
// points into the merged partials (rows, names, D runs) is dropped, so a
// pooled scratch never keeps a finished query's partials alive.
func (ms *mergeScratch) release() {
	clear(ms.tables)
	clear(ms.scored)
	mergeScratchPool.Put(ms)
}
