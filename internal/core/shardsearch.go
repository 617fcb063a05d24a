package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"d3l/internal/lsh"
	"d3l/internal/table"
)

// This file is the engine half of the sharded scatter-gather protocol.
// A shard set partitions the lake's tables across N engines that share
// one id space (see MirrorAdd/MirrorUpdate in mirror.go): every shard
// assigns the same table and attribute ids the monolith would, owning
// shards hold the real profiles and forests, peers hold dead mirror
// slots. Under that invariant a top-k query decomposes exactly:
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
//             wholly table-local decision) and ships the sorted
//             per-(column, evidence) distance samples that back the
//             Eq. 2 weight distributions.
//   merge   — the coordinator merges the shards' sorted sample runs
//             (equal multiset in, identical ECDF out) and runs the
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
// shard resolves the same QuerySpec against identically-configured
// engines, so the metas must agree verbatim; the coordinator validates
// that and then scores with these values.
type ShardQueryMeta struct {
	NumCols  int
	K        int
	Budget   int
	Disabled [NumEvidence]bool
	Weights  Weights
	Uniform  bool
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
// monolith would materialise for this table.
type ShardTable struct {
	TableID int
	Name    string
	Rows    []Alignment
}

// ShardPartial is one shard's answer to the gather phase.
type ShardPartial struct {
	Meta ShardQueryMeta
	// PairCount and TableCount are this shard's contribution to the
	// deterministic SearchStats counters.
	PairCount  int
	TableCount int
	// Samples holds the per-(column, evidence) distance samples backing
	// the Eq. 2 distributions, cell col*NumEvidence+t, each sorted
	// ascending. Nil when the query runs uniform weighting.
	Samples [][]float64
	// Tables lists this shard's candidate tables in ascending table-id
	// order.
	Tables []ShardTable
}

// shardMeta is the query shape a resolved view gives a profiled target.
func shardMeta(view *specView, numCols int) ShardQueryMeta {
	return ShardQueryMeta{
		NumCols:  numCols,
		K:        view.k,
		Budget:   view.budget,
		Disabled: view.disabled,
		Weights:  view.weights,
		Uniform:  view.uniform,
	}
}

// ShardProbeSpec runs the probe phase for one query on this shard:
// profile the target, then ShardProbeProfiled.
func (e *Engine) ShardProbeSpec(ctx context.Context, target *table.Table, spec QuerySpec) (*ShardProbe, error) {
	return e.ShardProbeProfiled(ctx, e.ProfileTarget(target), spec)
}

// ShardProbeProfiled runs the probe phase over an already profiled
// target (ProfileTarget's output, read-only here): resolve the spec and
// report the per-depth candidate counts of every enabled forest probe.
// ProfileTarget is a pure function of the table and the engine's
// immutable options, so one profiling pass serves every identically
// configured shard and both phases of the query.
func (e *Engine) ShardProbeProfiled(ctx context.Context, tprofiles []Profile, spec QuerySpec) (*ShardProbe, error) {
	view, err := e.resolve(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	probe := &ShardProbe{
		Meta:   shardMeta(&view, len(tprofiles)),
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
// depths: profile the target, then ShardGatherProfiled.
func (e *Engine) ShardGatherSpec(ctx context.Context, target *table.Table, spec QuerySpec, depths *ShardDepths) (*ShardPartial, error) {
	return e.ShardGatherProfiled(ctx, e.ProfileTarget(target), spec, depths)
}

// ShardGatherProfiled runs the gather phase over an already profiled
// target (read-only here) at the imposed depths: the shared gather on
// the pooled query arena, then per-table best-pair rows and the Eq. 2
// sample cells. The resolved view must match the directive's meta — a
// mismatch means the shard's engine options drifted from its peers
// since the probe. Like a monolith query it stops within a candidate
// batch of ctx being cancelled and returns ctx.Err(), never a partial.
func (e *Engine) ShardGatherProfiled(ctx context.Context, tprofiles []Profile, spec QuerySpec, depths *ShardDepths) (*ShardPartial, error) {
	view, err := e.resolve(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	numCols := len(tprofiles)
	meta := shardMeta(&view, numCols)
	if meta != depths.Meta {
		return nil, fmt.Errorf("core: gather query shape disagrees with the depth directive")
	}
	if len(depths.Depths) != numCols {
		return nil, fmt.Errorf("core: depth directive covers %d columns, target has %d", len(depths.Depths), numCols)
	}
	var tsubject *Profile
	for i := range tprofiles {
		if tprofiles[i].Subject {
			tsubject = &tprofiles[i]
		}
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	qs := e.getQueryScratch()
	defer e.putQueryScratch(qs)
	st := e.newStageTimer()

	// Columns are gathered one after another: the shards of a set
	// already run side by side, so a second level of fan-out would only
	// oversubscribe the cores they share.
	pairs, err := e.gatherPairs(ctx, tprofiles, tsubject, &view, 1, qs, depths.Depths)
	if err != nil {
		return nil, err
	}
	st.lap(StageGather)

	// The partial leaves the arena in two slabs, one of samples and one of
	// rows; cells and tables are three-index sub-slices of them, so an
	// append to one cannot reach into the next.
	partial := &ShardPartial{Meta: meta, PairCount: len(pairs)}
	if !view.uniform {
		cells := qs.sampleCells(numCols)
		slab := slices.Clone(qs.samples) // the cells, back to back
		partial.Samples = make([][]float64, len(cells))
		off := 0
		for i, cell := range cells {
			partial.Samples[i] = slab[off : off+len(cell) : off+len(cell)]
			off += len(cell)
		}
	}
	qs.runs = groupPairsByTable(pairs, qs.runs)
	partial.TableCount = len(qs.runs)
	partial.Tables = make([]ShardTable, len(qs.runs))
	ws := e.getWorkerScratch()
	defer e.putWorkerScratch(ws)
	// A table has at most one row per pair and per target column.
	rows := make([]Alignment, 0, min(len(pairs), len(qs.runs)*numCols))
	for i, run := range qs.runs {
		start := len(rows)
		rows = e.alignments(rows, pairs[run.start:run.end], numCols, ws)
		partial.Tables[i] = ShardTable{
			TableID: run.tid,
			Name:    e.lake.Table(run.tid).Name,
			Rows:    rows[start:len(rows):len(rows)],
		}
	}
	return partial, nil
}

// MergeShardPartials runs the coordinator's merge phase: rebuild the
// global Eq. 2 distributions from the shards' sample multisets, then
// score and rank the shipped tables with the monolith's own loop. The
// returned ranking and stats are byte-identical to the monolith's
// answer for the same query.
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
	for i, p := range partials {
		if p.Meta != meta {
			return nil, st, PlanStats{}, fmt.Errorf("core: shard %d gathered a different query shape", i)
		}
		// The scorer indexes the sample cells by a row's target column
		// and divides by a table's row count: a partial is checked here,
		// whichever way it arrived, before either can go wrong.
		if err := p.Validate(); err != nil {
			return nil, st, PlanStats{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}

	ms := mergeScratchPool.Get().(*mergeScratch)
	defer ms.release()

	// Global Eq. 2 distributions: a shard ships each cell sorted, so the
	// monolith's sorted sample multiset is the merge of the shards' runs,
	// and ECDFs are a pure function of that multiset. All cells go into
	// one slab.
	var ecdfs *distanceECDFs
	if !meta.Uniform {
		total := 0
		for _, p := range partials {
			for _, cell := range p.Samples {
				total += len(cell)
			}
		}
		numCells := numCols * int(NumEvidence)
		slab := slices.Grow(ms.samples[:0], total)
		cells := slices.Grow(ms.cells[:0], numCells)
		for cell := 0; cell < numCells; cell++ {
			ms.runs = ms.runs[:0]
			for _, p := range partials {
				ms.runs = append(ms.runs, p.Samples[cell])
			}
			start := len(slab)
			slab = mergeSortedRuns(slab, ms.runs)
			cells = append(cells, slab[start:len(slab):len(slab)])
		}
		ms.samples, ms.cells = slab, cells
		ecdfs = &distanceECDFs{cols: numCols, cells: cells}
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
	sc := newScorer(meta.K, meta.Weights, meta.Disabled, evidenceCascade(meta.Disabled), ecdfs)
	var ps PlanStats
	var err error
	ms.scored, ms.top, ps, err = sc.rankTables(context.Background(), len(tables),
		func(i int) []Alignment { return tables[i].Rows },
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
			// A copy: the answer may sit in a result cache for hours, and
			// a sub-slice would keep its shard's whole row slab alive.
			Alignments: slices.Clone(tables[s.src].Rows),
		}
	}
	return results, st, ps, nil
}

// mergeScratch is the merge's counterpart of queryScratch: the sample
// slab and its cells, the run heads of the cell being merged, the
// concatenated table list, and rankTables' slots and heap. None of it
// escapes into the answer (the winners' rows are copied out), so a
// coordinator at steady state merges into the memory of the query
// before. The merge belongs to no engine, hence a package-level pool.
type mergeScratch struct {
	samples []float64
	cells   [][]float64
	runs    [][]float64
	tables  []ShardTable
	scored  []scoredTable
	top     []int32
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// release returns the scratch to the pool holding capacity only: what
// points into the merged partials (rows, names, sample runs) is dropped,
// so a pooled scratch never keeps a finished query's partials alive.
func (ms *mergeScratch) release() {
	clear(ms.runs)
	clear(ms.tables)
	clear(ms.scored)
	mergeScratchPool.Put(ms)
}

// mergeSortedRuns appends to dst the merge of runs, each ascending in
// the order slices.Sort gives float64s (cmp.Less: NaNs first), and so
// appends exactly what sorting their concatenation would. The runs are
// consumed: the slice headers in runs are advanced to empty.
func mergeSortedRuns(dst []float64, runs [][]float64) []float64 {
	for {
		least, live := -1, 0
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			live++
			if least < 0 || cmp.Less(run[0], runs[least][0]) {
				least = i
			}
		}
		switch live {
		case 0:
			return dst
		case 1: // nothing left to compare with
			dst = append(dst, runs[least]...)
			runs[least] = nil
			return dst
		}
		dst = append(dst, runs[least][0])
		runs[least] = runs[least][1:]
	}
}
