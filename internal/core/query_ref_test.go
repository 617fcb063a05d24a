package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"d3l/internal/datagen"
	"d3l/internal/stats"
	"d3l/internal/table"
)

// This file pins the hot-path rebuild (pooled arenas, allocation-free
// forest probes, run-sliced grouping, bounded top-k selection) to the
// pre-rebuild pipeline: naiveSearchSpec below is a line-for-line
// retention of the original map-and-sort implementation, and the
// property test asserts deep equality of the full SearchResult payload
// (ranking, vectors, alignments, stats) across randomized lakes,
// evidence masks, budgets, weights and parallelism levels. If an
// optimisation ever diverges observably, this fails before any golden
// fixture does.

// naiveSearchSpec is the reference implementation: per-column forest
// probes deduplicated through a map, memo-free pair distances
// (refPairDistances), ECDFs built with per-cell sample
// slices, grouping through a byTable map with sorted keys, per-table
// alignment via alignColumns/aggregateEq1, and a full sort of every
// scored table truncated to k.
func naiveSearchSpec(e *Engine, target *table.Table, spec QuerySpec) (*SearchResult, error) {
	view, err := e.resolve(spec)
	if err != nil {
		return nil, err
	}
	tprofiles := e.ProfileTarget(target)
	var tsubject *Profile
	for i := range tprofiles {
		if tprofiles[i].Subject {
			tsubject = &tprofiles[i]
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()

	var pairs []candidatePair
	for col := range tprofiles {
		tp := &tprofiles[col]
		seen := make(map[int32]struct{})
		collect := func(ids []int32) {
			for _, id := range ids {
				seen[id] = struct{}{}
			}
		}
		if !view.disabled[EvidenceName] {
			if ids, err := e.forests[forestSlotN].Query(tp.QSig, view.budget); err == nil {
				collect(ids)
			}
		}
		if !view.disabled[EvidenceValue] && !tp.Numeric {
			if ids, err := e.forests[forestSlotV].Query(tp.TSig, view.budget); err == nil {
				collect(ids)
			}
		}
		if !view.disabled[EvidenceFormat] {
			if ids, err := e.forests[forestSlotF].Query(tp.RSig, view.budget); err == nil {
				collect(ids)
			}
		}
		if !view.disabled[EvidenceEmbedding] && !tp.EZero {
			if ids, err := e.forests[forestSlotE].Query(tp.ESig.HashValues(), view.budget); err == nil {
				collect(ids)
			}
		}
		ids := make([]int, 0, len(seen))
		for id := range seen {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			cand := &e.profiles[id]
			var candSubject *Profile
			if s := e.subjects[cand.Ref.TableID]; s >= 0 {
				candSubject = &e.profiles[s]
			}
			d := e.refPairDistances(tp, cand, tsubject, candSubject, view.disabled)
			pairs = append(pairs, candidatePair{targetCol: col, attrID: id, tableID: cand.Ref.TableID, dist: d})
		}
	}

	var ecdfs *distanceECDFs
	if !view.uniform {
		ecdfs = buildDistanceECDFs(len(tprofiles), pairs)
	}

	byTable := make(map[int][]candidatePair)
	for _, p := range pairs {
		byTable[p.tableID] = append(byTable[p.tableID], p)
	}
	tids := make([]int, 0, len(byTable))
	for tid := range byTable {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	results := make([]TableResult, 0, len(tids))
	for _, tid := range tids {
		aligns := e.alignColumns(byTable[tid])
		if len(aligns) == 0 {
			continue
		}
		vec := aggregateEq1(aligns, ecdfs, view.disabled)
		results = append(results, TableResult{
			TableID:    tid,
			Name:       e.lake.Table(tid).Name,
			Distance:   combineEq3(view.weights, view.disabled, vec),
			Vector:     vec,
			Alignments: aligns,
		})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Distance != results[j].Distance {
			return results[i].Distance < results[j].Distance
		}
		return results[i].Name < results[j].Name
	})
	if len(results) > view.k {
		results = results[:view.k]
	}
	return &SearchResult{
		Target:         target,
		TargetProfiles: tprofiles,
		TargetSubject:  tsubject,
		Ranked:         results,
		Stats: SearchStats{
			CandidatePairs: len(pairs),
			TablesScored:   len(tids),
		},
	}, nil
}

// The four helpers below are the paper-literal form of the guard and the
// scoring steps, kept apart from the pipeline as the oracle it is
// compared to.

// domainDistanceReference is Algorithm 2 as the paper writes it: the
// guard looks the subject attributes up first (i' ∈ I*.lookup(i)), then
// the pair in I_N, then in I_F — each lookup a signature comparison of
// its own, whatever the query's evidence mask — and only a guarded pair
// pays for the KS statistic.
func (e *Engine) domainDistanceReference(target, cand, targetSubject, candSubject *Profile) float64 {
	if !target.Numeric || !cand.Numeric {
		return 1
	}
	if len(target.NumExtent) == 0 || len(cand.NumExtent) == 0 {
		return 1
	}
	guard := false
	if targetSubject != nil && candSubject != nil && e.attrRelatedAnyIndex(targetSubject, candSubject) {
		guard = true
	} else if jaccardSimilarity(target.QSig, cand.QSig) >= e.opts.Threshold {
		guard = true
	} else if jaccardSimilarity(target.RSig, cand.RSig) >= e.opts.Threshold {
		guard = true
	}
	if !guard {
		return 1
	}
	ks, err := stats.KolmogorovSmirnovSorted(target.NumExtent, cand.NumExtent)
	if err != nil {
		return 1
	}
	return ks
}

// buildDistanceECDFs is the standalone (allocating) constructor over a
// flat pair list — the oracle for the arena's sampleCells.
func buildDistanceECDFs(numCols int, pairs []candidatePair) *distanceECDFs {
	samples := make([][][]float64, numCols)
	for c := range samples {
		samples[c] = make([][]float64, NumEvidence)
	}
	for _, p := range pairs {
		for t := 0; t < int(NumEvidence); t++ {
			samples[p.targetCol][t] = append(samples[p.targetCol][t], p.dist[t])
		}
	}
	out := &distanceECDFs{cols: numCols, cells: make([][]float64, numCols*int(NumEvidence))}
	for c := range samples {
		for t := range samples[c] {
			if len(samples[c][t]) > 0 {
				sorted := append([]float64(nil), samples[c][t]...)
				slices.Sort(sorted)
				out.cells[c*int(NumEvidence)+t] = sorted
			}
		}
	}
	return out
}

// alignColumns picks, for every target column that has candidates in
// this table, the best-related attribute (smallest mean distance). A
// candidate attribute may serve multiple target columns, as in the
// paper's grouping (Table I pairs each target attribute independently).
func (e *Engine) alignColumns(tablePairs []candidatePair) []Alignment {
	best := make(map[int]candidatePair)
	for _, p := range tablePairs {
		cur, ok := best[p.targetCol]
		// Ties break towards the smaller attribute id so the alignment
		// does not depend on candidate arrival order.
		if !ok || p.dist.Mean() < cur.dist.Mean() ||
			(p.dist.Mean() == cur.dist.Mean() && p.attrID < cur.attrID) {
			best[p.targetCol] = p
		}
	}
	cols := make([]int, 0, len(best))
	for c := range best {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	out := make([]Alignment, 0, len(cols))
	for _, c := range cols {
		p := best[c]
		out = append(out, Alignment{
			TargetColumn: c,
			AttrID:       p.attrID,
			CandColumn:   e.profiles[p.attrID].Ref.Column,
			Distances:    p.dist,
		})
	}
	return out
}

// aggregateEq1 folds the alignment rows column-wise into the
// 5-dimensional relatedness vector using the Eq. 2 CCDF weights.
func aggregateEq1(aligns []Alignment, ecdfs *distanceECDFs, disabled [NumEvidence]bool) DistanceVector {
	var vec DistanceVector
	for t := 0; t < int(NumEvidence); t++ {
		if disabled[t] {
			vec[t] = 1
			continue
		}
		var num, den float64
		for _, a := range aligns {
			w := ecdfs.weight(a.TargetColumn, Evidence(t), a.Distances[t])
			num += w * a.Distances[t]
			den += w
		}
		if den == 0 {
			// Every row is maximally distant in its distribution; the
			// unweighted mean preserves the (weak) signal.
			for _, a := range aligns {
				num += a.Distances[t]
			}
			vec[t] = num / float64(len(aligns))
			continue
		}
		vec[t] = num / den
	}
	return vec
}

// refLake builds a small randomized lake for the equivalence tests.
func refLake(t testing.TB, seed uint64) *table.Lake {
	t.Helper()
	cfg := datagen.SyntheticConfig{
		Seed:          seed,
		BaseTables:    4,
		DerivedTables: 28,
		MinRows:       8,
		MaxRows:       30,
		RenameProb:    0.3,
	}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lake
}

// assertEquivalent compares the pipeline's answer for one spec against
// the naive reference, field by field. The reference descends the
// forests depth by depth, guards Algorithm 2 in the paper's order,
// scores every table in full and sorts, so agreement covers the one-walk
// probe, the guard's reordering, the cascade's pruning and the bounded
// selection at once.
func assertEquivalent(t *testing.T, e *Engine, target *table.Table, spec QuerySpec, label string) {
	t.Helper()
	got, err := e.SearchSpec(context.Background(), target, spec)
	if err != nil {
		t.Fatalf("%s: SearchSpec: %v", label, err)
	}
	want, err := naiveSearchSpec(e, target, spec)
	if err != nil {
		t.Fatalf("%s: naive: %v", label, err)
	}
	if !got.Plan.Enabled {
		t.Fatalf("%s: the query reported no plan", label)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats diverge: got %+v want %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Ranked, want.Ranked) {
		if len(got.Ranked) != len(want.Ranked) {
			t.Fatalf("%s: ranked length %d vs %d", label, len(got.Ranked), len(want.Ranked))
		}
		for i := range got.Ranked {
			if !reflect.DeepEqual(got.Ranked[i], want.Ranked[i]) {
				t.Fatalf("%s: rank %d diverges:\ngot  %+v\nwant %+v", label, i, got.Ranked[i], want.Ranked[i])
			}
		}
		t.Fatalf("%s: ranked answers diverge", label)
	}
}

// TestSearchSpecMatchesNaiveReference is the hot-path equivalence
// property test: across randomized lakes, evidence masks, candidate
// budgets, weights, ks and parallelism levels, the optimized pipeline
// must be deep-equal — ranking, vectors, alignments and stats — to the
// retained naive implementation.
func TestSearchSpecMatchesNaiveReference(t *testing.T) {
	masks := []*[NumEvidence]bool{
		nil,
		{EvidenceValue: true},
		{EvidenceName: true, EvidenceFormat: true},
		{EvidenceValue: true, EvidenceEmbedding: true, EvidenceDomain: true},
	}
	weights := []*Weights{nil, {2.5, 0.6, 1.1, 0.3, 1.9}}
	for _, seed := range []uint64{1, 7} {
		lake := refLake(t, seed)
		for _, uniform := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Parallelism = 1
			opts.UniformEq1Weights = uniform
			e, err := BuildEngine(lake, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(seed)))
			for trial := 0; trial < 24; trial++ {
				spec := QuerySpec{
					K:               []int{1, 3, 10, 60}[rng.Intn(4)],
					Weights:         weights[rng.Intn(len(weights))],
					Disabled:        masks[rng.Intn(len(masks))],
					CandidateBudget: []int{0, 4, 48}[rng.Intn(3)],
					Parallelism:     []int{1, 2, 7}[rng.Intn(3)],
				}
				target := lake.Table(rng.Intn(lake.Len()))
				label := fmt.Sprintf("seed=%d uniform=%v trial=%d spec=%+v", seed, uniform, trial, spec)
				assertEquivalent(t, e, target, spec, label)
			}
		}
	}
}

// TestSearchEquivalenceAfterMutation re-checks equivalence on an
// engine whose attribute-id-to-table mapping has been perturbed by
// Add/Remove churn — the regime where the grouped pair sort actually
// has to order by table id rather than coast on build-time
// monotonicity.
func TestSearchEquivalenceAfterMutation(t *testing.T) {
	lake := refLake(t, 3)
	opts := DefaultOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	extra := refLake(t, 99)
	for i := 0; i < 4; i++ {
		src := extra.Table(i)
		nt, err := table.New("mut_"+src.Name, colNames(src), rowsOf(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Add(nt); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Remove(lake.Table(1).Name); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(lake.Table(5).Name); err != nil {
		t.Fatal(err)
	}
	for trial, k := range []int{1, 5, 25} {
		target := lake.Table((trial * 7) % lake.Len())
		assertEquivalent(t, e, target, QuerySpec{K: k}, fmt.Sprintf("mutated trial=%d", trial))
	}
}

func colNames(t *table.Table) []string {
	out := make([]string, t.Arity())
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

func rowsOf(t *table.Table) [][]string {
	if t.Arity() == 0 {
		return nil
	}
	n := len(t.Columns[0].Values)
	rows := make([][]string, n)
	for r := 0; r < n; r++ {
		row := make([]string, t.Arity())
		for c := range t.Columns {
			row[c] = t.Columns[c].Values[r]
		}
		rows[r] = row
	}
	return rows
}

// TestArenaReuseConcurrentSpecs stress-tests arena recycling under
// -race: many goroutines issue differently-optioned queries against
// one engine while a mutator churns Add/Remove (growing the profile
// store the epoch-stamped visited arrays are sized to). Each fixed-
// spec goroutine verifies its answers against a precomputed expected
// result during the quiescent phase; the churn phase relies on the
// race detector and the per-answer internal consistency checks.
func TestArenaReuseConcurrentSpecs(t *testing.T) {
	lake := refLake(t, 11)
	opts := DefaultOptions()
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := []QuerySpec{
		{K: 5},
		{K: 1, Disabled: &[NumEvidence]bool{EvidenceValue: true}},
		{K: 20, CandidateBudget: 8},
		{K: 3, Weights: &Weights{1.5, 0.2, 2.0, 0.8, 1.0}, Parallelism: 2},
		{K: 10, Disabled: &[NumEvidence]bool{EvidenceName: true, EvidenceEmbedding: true}},
	}
	targets := make([]*table.Table, len(specs))
	expected := make([]*SearchResult, len(specs))
	for i, spec := range specs {
		targets[i] = lake.Table((i * 5) % lake.Len())
		res, err := e.SearchSpec(context.Background(), targets[i], spec)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = res
	}

	// Phase 1: quiescent engine, every answer must be byte-stable.
	var wg sync.WaitGroup
	errs := make(chan error, len(specs)*2)
	for g := 0; g < 2; g++ {
		for i := range specs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 8; rep++ {
					res, err := e.SearchSpec(context.Background(), targets[i], specs[i])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Ranked, expected[i].Ranked) || res.Stats != expected[i].Stats {
						errs <- fmt.Errorf("spec %d: answer diverged across concurrent arena reuse", i)
						return
					}
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase 2: the same query mix racing Add/Remove churn.
	extra := refLake(t, 101)
	done := make(chan struct{})
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			src := extra.Table(i % extra.Len())
			nt, err := table.New(fmt.Sprintf("churn_%d", i), colNames(src), rowsOf(src))
			if err != nil {
				return
			}
			if _, err := e.Add(nt); err != nil {
				return
			}
			_ = e.Remove(nt.Name)
		}
	}()
	var qwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func(g int) {
			defer qwg.Done()
			for rep := 0; rep < 10; rep++ {
				i := (g + rep) % len(specs)
				if _, err := e.SearchSpec(context.Background(), targets[i], specs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	qwg.Wait()
	close(done)
	mwg.Wait()
}

// TestQueryAllocationBudget pins the steady-state allocation count of
// the post-profiling pipeline (candidate generation through ranking) —
// the region the arena work targets. The budget is deliberately a few
// times the measured steady state (~15: the ranked slice, the k
// winners' alignment rows, the SearchResult, and an occasional pool
// refill) so noise cannot flake it, while any reintroduced per-
// candidate or per-table allocation (hundreds to thousands per query)
// fails immediately.
func TestQueryAllocationBudget(t *testing.T) {
	lake := refLake(t, 17)
	opts := DefaultOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(3)
	tprofiles := e.ProfileTarget(target)
	var tsubject *Profile
	for i := range tprofiles {
		if tprofiles[i].Subject {
			tsubject = &tprofiles[i]
		}
	}
	view, err := e.resolve(QuerySpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the arenas to steady state before measuring.
	for i := 0; i < 3; i++ {
		if _, err := e.rankProfiled(ctx, target, tprofiles, tsubject, view, 1); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 64
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.rankProfiled(ctx, target, tprofiles, tsubject, view, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("steady-state ranking pipeline allocates %.0f per query, budget %d", allocs, budget)
	}
}
