package core

import (
	"context"
	"fmt"
	"slices"

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
//             instead of descending locally: same probe table, same
//             dedup, same pair distances. It then selects each owned
//             table's best pair per target column (a wholly table-local
//             decision) and ships the per-(column, evidence) distance
//             samples that back the Eq. 2 weight distributions.
//   merge   — the coordinator concatenates the sample multisets (equal
//             multiset in, identical ECDF out) and runs the monolith's
//             own score-and-rank loop (rankTables) over the shipped
//             best-pair rows, cascade pruning included. Because
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

	partial := &ShardPartial{Meta: meta, PairCount: len(pairs)}
	if !view.uniform {
		partial.Samples = make([][]float64, 0, numCols*int(NumEvidence))
		for _, cell := range qs.sampleCells(numCols) {
			partial.Samples = append(partial.Samples, slices.Clone(cell))
		}
	}
	qs.runs = groupPairsByTable(pairs, qs.runs)
	partial.TableCount = len(qs.runs)
	partial.Tables = make([]ShardTable, 0, len(qs.runs))
	ws := e.getWorkerScratch()
	defer e.putWorkerScratch(ws)
	for _, run := range qs.runs {
		partial.Tables = append(partial.Tables, ShardTable{
			TableID: run.tid,
			Name:    e.lake.Table(run.tid).Name,
			Rows:    e.alignments(pairs[run.start:run.end], numCols, ws),
		})
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

	// Global Eq. 2 distributions: per cell, the concatenation of the
	// shards' sorted sample vectors re-sorted is the monolith's sorted
	// sample multiset, and ECDFs are a pure function of that multiset.
	var ecdfs *distanceECDFs
	if !meta.Uniform {
		cells := make([][]float64, numCols*int(NumEvidence))
		for cell := range cells {
			total := 0
			for _, p := range partials {
				total += len(p.Samples[cell])
			}
			merged := make([]float64, 0, total)
			for _, p := range partials {
				merged = append(merged, p.Samples[cell]...)
			}
			slices.Sort(merged)
			cells[cell] = merged
		}
		ecdfs = &distanceECDFs{cols: numCols, cells: cells}
	}

	// Tables are disjoint across shards (each is owned by exactly one)
	// and the ranking is a total order, so the concatenation order
	// cannot affect the answer.
	var tables []ShardTable
	for _, p := range partials {
		tables = append(tables, p.Tables...)
		st.CandidatePairs += p.PairCount
		st.TablesScored += p.TableCount
	}
	sc := newScorer(meta.K, meta.Weights, meta.Disabled, evidenceCascade(meta.Disabled), ecdfs)
	scored, top, ps, err := sc.rankTables(context.Background(), len(tables),
		func(i int) []Alignment { return tables[i].Rows },
		func(i int) (int, string) { return tables[i].TableID, tables[i].Name },
		nil, nil)
	if err != nil {
		return nil, st, ps, err
	}
	results := make([]TableResult, len(top))
	for i, idx := range top {
		s := &scored[idx]
		results[i] = TableResult{
			TableID:    s.tid,
			Name:       s.name,
			Distance:   s.dist,
			Vector:     s.vec,
			Alignments: tables[s.src].Rows,
		}
	}
	return results, st, ps, nil
}
