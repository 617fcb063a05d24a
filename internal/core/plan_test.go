package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"d3l/internal/table"
)

// planSearch is a test shorthand: SearchSpec with a fatal on error.
func planSearch(t *testing.T, e *Engine, target *table.Table, spec QuerySpec) *SearchResult {
	t.Helper()
	res, err := e.SearchSpec(context.Background(), target, spec)
	if err != nil {
		t.Fatalf("SearchSpec(%+v): %v", spec, err)
	}
	return res
}

// TestPlannerPropertyEquivalence is the planner's own property test,
// aimed at the regions the naive-reference matrix does not reach:
// boundary weight vectors (zeros, a negative zero, weights above 1, a
// vector whose every enabled component is zero so the pruning bound
// degenerates), crossed with evidence masks, randomized lakes and
// targets. For every combination the answer must deep-equal the naive
// reference's, and the pruning counters — deterministic by
// construction, because the cascade scores tables sequentially in
// ascending table-id order — must be identical at every parallelism.
func TestPlannerPropertyEquivalence(t *testing.T) {
	negZero := math.Copysign(0, -1)
	weights := []*Weights{
		nil,
		{0, negZero, 1.75, 0, 3.5},        // zeros, −0.0 and >1 mixed
		{5.25, 2.5, 1.1, 8.0, 1.9},        // every weight above 1
		{0, 0, 0, 0, 2.25},                // with Domain masked: den == 0
		{negZero, negZero, negZero, 1, 0}, // one live component
	}
	masks := []*[NumEvidence]bool{
		nil,
		{EvidenceDomain: true}, // turns weights[3] into the den==0 case
		{EvidenceName: true, EvidenceValue: true},
		{EvidenceFormat: true, EvidenceEmbedding: true, EvidenceDomain: true},
	}
	for _, seed := range []uint64{5, 21} {
		lake := refLake(t, seed)
		opts := DefaultOptions()
		opts.Parallelism = 1
		e, err := BuildEngine(lake, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed) + 1000))
		for trial := 0; trial < 20; trial++ {
			spec := QuerySpec{
				K:               []int{1, 4, 25}[rng.Intn(3)],
				Weights:         weights[rng.Intn(len(weights))],
				Disabled:        masks[rng.Intn(len(masks))],
				CandidateBudget: []int{0, 6, 48}[rng.Intn(3)],
			}
			target := lake.Table(rng.Intn(lake.Len()))
			label := fmt.Sprintf("seed=%d trial=%d spec=%+v", seed, trial, spec)

			ref, err := naiveSearchSpec(e, target, spec)
			if err != nil {
				t.Fatalf("%s: naive: %v", label, err)
			}

			var counters *PlanStats
			for _, par := range []int{1, 2, 7} {
				setParallelism(t, e, par)
				res := planSearch(t, e, target, spec)
				if !res.Plan.Enabled {
					t.Fatalf("%s par=%d: planner did not run", label, par)
				}
				if res.Stats != ref.Stats {
					t.Fatalf("%s par=%d: stats diverge: %+v vs %+v", label, par, res.Stats, ref.Stats)
				}
				if !reflect.DeepEqual(res.Ranked, ref.Ranked) {
					t.Fatalf("%s par=%d: answer diverges from the naive reference", label, par)
				}
				got := res.Plan
				if counters == nil {
					counters = &got
				} else if *counters != got {
					t.Fatalf("%s: prune counters vary with parallelism: %+v vs %+v", label, *counters, got)
				}
			}
		}
	}
}

// TestPlanSlotPerMask pins the per-mask plan slots through the engine
// API: two identical queries report equal plans, no query parameter
// but the evidence mask (not the target, k, weights or budget) and no
// write builds a plan, and each new mask builds exactly one. After N
// ranking queries over m distinct masks the totals read m misses and
// N − m hits.
func TestPlanSlotPerMask(t *testing.T) {
	lake := refLake(t, 13)
	e, err := BuildEngine(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(2)
	base := QuerySpec{K: 5, CandidateBudget: 48}
	queries, masks := 0, 0
	check := func(label string) {
		t.Helper()
		tot := e.PlannerTotals()
		if tot.PlanCacheMisses != int64(masks) || tot.PlanCacheHits != int64(queries-masks) {
			t.Fatalf("%s: %d queries over %d masks, totals %+v", label, queries, masks, tot)
		}
	}
	search := func(tg *table.Table, spec QuerySpec) *SearchResult {
		t.Helper()
		queries++
		return planSearch(t, e, tg, spec)
	}

	first := search(target, base)
	masks++
	if second := search(target, base); second.Plan != first.Plan {
		t.Fatalf("identical queries report different plans: %+v vs %+v", second.Plan, first.Plan)
	}
	check("identical queries")

	src := lake.Table(0)
	nt, err := table.New("plan_slot_churn", colNames(src), rowsOf(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		run   func()
	}{
		{"another target", func() { search(lake.Table(9), base) }},
		{"another k", func() { search(target, QuerySpec{K: 25, CandidateBudget: 48}) }},
		{"other weights", func() { search(target, QuerySpec{K: 5, CandidateBudget: 48, Weights: &Weights{2, 1, 1, 1, 3}}) }},
		{"another budget", func() { search(target, QuerySpec{K: 5, CandidateBudget: 7}) }},
		{"an Add between queries", func() {
			if _, err := e.Add(nt); err != nil {
				t.Fatal(err)
			}
			search(target, base)
		}},
	} {
		c.run()
		check(c.label)
	}

	valueOff := [NumEvidence]bool{EvidenceValue: true}
	for _, c := range []struct {
		label    string
		disabled [NumEvidence]bool
		newMask  bool
	}{
		{"value off", valueOff, true},
		{"name and domain off", [NumEvidence]bool{EvidenceName: true, EvidenceDomain: true}, true},
		{"value off again", valueOff, false},
		{"every mask seen", [NumEvidence]bool{}, false},
	} {
		res := search(target, QuerySpec{K: 5, Disabled: &c.disabled})
		if c.newMask {
			masks++
		}
		if want := planFor(c.disabled).order; res.Plan.Order != want {
			t.Fatalf("%s: cascade %q, want %q", c.label, res.Plan.Order, want)
		}
		check(c.label)
	}
}

// TestPlanSlotFirstUseRace has several queries make the first use of
// one mask at once: every one must run the same cascade, exactly one
// builds the slot's plan, and every query counts once, as a hit or the
// miss. Run it under -race.
func TestPlanSlotFirstUseRace(t *testing.T) {
	lake := refLake(t, 13)
	e, err := BuildEngine(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	spec := QuerySpec{K: 3, Disabled: &[NumEvidence]bool{EvidenceEmbedding: true}}
	orders := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			res, err := e.SearchSpec(context.Background(), lake.Table(g%lake.Len()), spec)
			if err != nil {
				t.Error(err)
				return
			}
			orders[g] = res.Plan.Order
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range orders {
		if orders[g] != orders[0] {
			t.Fatalf("query %d ran cascade %q, query 0 ran %q", g, orders[g], orders[0])
		}
	}
	if tot := e.PlannerTotals(); tot.PlanCacheMisses != 1 || tot.PlanCacheHits+tot.PlanCacheMisses != n {
		t.Fatalf("%d racing first queries of one mask: totals %+v", n, tot)
	}
}

// TestPlannerPrunesAndStaysExact is the deterministic pruning check:
// on a lake of derived (hence mutually similar) tables with the target
// drawn from the lake itself, a k=1 query fills the heap with a
// near-zero distance immediately, so the cascade must prune — and the
// counters must reproduce exactly across repeats and parallelism
// levels, and accumulate into the engine totals.
func TestPlannerPrunesAndStaysExact(t *testing.T) {
	lake := refLake(t, 31)
	opts := DefaultOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(0)
	spec := QuerySpec{K: 1, CandidateBudget: 64}

	first := planSearch(t, e, target, spec)
	if first.Plan.TablesPruned == 0 || first.Plan.PairsPruned == 0 || first.Plan.EvidenceEvalsElided == 0 {
		t.Fatalf("skewed k=1 query pruned nothing: %+v", first.Plan)
	}
	for _, par := range []int{1, 2, 7} {
		setParallelism(t, e, par)
		if res := planSearch(t, e, target, spec); res.Plan != first.Plan {
			t.Fatalf("par=%d: prune counters not deterministic: %+v vs %+v", par, res.Plan, first.Plan)
		}
	}
	ref, err := naiveSearchSpec(e, target, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Ranked, ref.Ranked) || first.Stats != ref.Stats {
		t.Fatal("pruning changed the answer")
	}
	tot := e.PlannerTotals()
	if tot.TablesPruned < int64(4*first.Plan.TablesPruned) {
		t.Fatalf("engine totals did not accumulate the pruned tables: %+v", tot)
	}
}
