package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
				on := spec
				on.Parallelism = par
				res := planSearch(t, e, target, on)
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
				got.Cached = false // cache state legitimately varies across reps
				if counters == nil {
					counters = &got
				} else if *counters != got {
					t.Fatalf("%s: prune counters vary with parallelism: %+v vs %+v", label, *counters, got)
				}
			}
		}
	}
}

// TestPlanCacheLifecycle pins the prepared-plan cache's observable
// behaviour through the engine API: a first query builds its plan, an
// identical second query reuses it, plan-shaping option changes (mask,
// budget) key new plans while execute-phase parameters (k, weights) do
// not, mutations invalidate through the engine fingerprint, and
// ResetPlanCache empties the cache without touching lifetime totals.
func TestPlanCacheLifecycle(t *testing.T) {
	lake := refLake(t, 13)
	e, err := BuildEngine(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(2)
	// The budget is pinned explicitly: when left to default it derives
	// from k, which would (correctly) key a different plan per k and
	// muddy the k-does-not-key-the-plan check below.
	base := QuerySpec{K: 5, CandidateBudget: 48}

	if res := planSearch(t, e, target, base); res.Plan.Cached {
		t.Fatal("first query reported a cached plan")
	}
	if res := planSearch(t, e, target, base); !res.Plan.Cached {
		t.Fatal("identical second query did not hit the plan cache")
	}
	if n := e.planCache.len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after two identical queries, want 1", n)
	}

	// k and weights parameterise execution, not the plan: same entry.
	if res := planSearch(t, e, target, QuerySpec{K: 25, CandidateBudget: 48, Weights: &Weights{2, 1, 1, 1, 3}}); !res.Plan.Cached {
		t.Fatal("changing k and weights missed the cache; they must not key the plan")
	}
	if n := e.planCache.len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after a k/weights change, want 1", n)
	}

	// Mask and budget shape the plan: new entries.
	masked := QuerySpec{K: 5, Disabled: &[NumEvidence]bool{EvidenceValue: true}}
	if res := planSearch(t, e, target, masked); res.Plan.Cached {
		t.Fatal("a different evidence mask hit the old plan")
	}
	if res := planSearch(t, e, target, QuerySpec{K: 5, CandidateBudget: 7}); res.Plan.Cached {
		t.Fatal("a different candidate budget hit the old plan")
	}
	// A different target keys its own plan too.
	if res := planSearch(t, e, lake.Table(9), base); res.Plan.Cached {
		t.Fatal("a different target hit the old plan")
	}
	if n := e.planCache.len(); n != 4 {
		t.Fatalf("plan cache holds %d entries, want 4", n)
	}

	// Mutation moves the engine fingerprint: the old plans are stale and
	// an identical query must rebuild.
	src := lake.Table(0)
	nt, err := table.New("plan_cache_churn", colNames(src), rowsOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(nt); err != nil {
		t.Fatal(err)
	}
	if res := planSearch(t, e, target, base); res.Plan.Cached {
		t.Fatal("post-mutation query reused a plan prepared against the old engine state")
	}

	tot := e.PlannerTotals()
	if tot.PlanCacheHits < 2 || tot.PlanCacheMisses < 5 {
		t.Fatalf("lifetime totals did not accumulate: %+v", tot)
	}

	e.ResetPlanCache()
	if n := e.planCache.len(); n != 0 {
		t.Fatalf("ResetPlanCache left %d entries", n)
	}
	if res := planSearch(t, e, target, base); res.Plan.Cached {
		t.Fatal("query after ResetPlanCache reported a cached plan")
	}
	if after := e.PlannerTotals(); after.PlanCacheHits != tot.PlanCacheHits {
		t.Fatalf("ResetPlanCache changed lifetime hit totals: %+v vs %+v", after, tot)
	}
}

// TestPlanCacheLRU unit-tests the bounded LRU directly: eviction order
// under capacity pressure, get-promotion, and same-key put keeping the
// incumbent plan (concurrent misses converge on one entry).
func TestPlanCacheLRU(t *testing.T) {
	var c planCache
	key := func(i int) planKey { return planKey{targetFP: uint64(i), engineFP: 1, optionFP: 1} }
	plans := make([]*preparedPlan, planCacheCapacity+8)
	for i := range plans {
		plans[i] = &preparedPlan{order: fmt.Sprintf("p%d", i)}
		c.put(key(i), plans[i])
	}
	if n := c.len(); n != planCacheCapacity {
		t.Fatalf("cache holds %d entries, capacity is %d", n, planCacheCapacity)
	}
	// The 8 oldest keys were evicted, the rest survive.
	for i := 0; i < 8; i++ {
		if c.get(key(i)) != nil {
			t.Fatalf("key %d should have been evicted", i)
		}
	}
	for i := 8; i < len(plans); i++ {
		if c.get(key(i)) != plans[i] {
			t.Fatalf("key %d lost its plan", i)
		}
	}
	// get promotes: after touching key 8 (the current tail), inserting
	// one more key evicts key 9 instead.
	if c.get(key(8)) == nil {
		t.Fatal("key 8 missing before promotion check")
	}
	c.put(planKey{targetFP: 9999, engineFP: 1, optionFP: 1}, &preparedPlan{})
	if c.get(key(8)) == nil {
		t.Fatal("promoted key 8 was evicted; LRU order ignored the get")
	}
	if c.get(key(9)) != nil {
		t.Fatal("key 9 survived eviction despite being least recently used")
	}
	// Same-key put keeps the incumbent.
	incumbent := c.get(key(20))
	c.put(key(20), &preparedPlan{order: "usurper"})
	if got := c.get(key(20)); got != incumbent {
		t.Fatal("same-key put replaced the incumbent plan")
	}
	c.reset()
	if c.len() != 0 || c.get(key(20)) != nil {
		t.Fatal("reset did not empty the cache")
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
		rep := spec
		rep.Parallelism = par
		res := planSearch(t, e, target, rep)
		got, want := res.Plan, first.Plan
		got.Cached, want.Cached = false, false
		if got != want {
			t.Fatalf("par=%d: prune counters not deterministic: %+v vs %+v", par, got, want)
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
