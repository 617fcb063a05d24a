package lsh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// queryIntoReference is the blind top-down descent QueryInto shipped
// with before the one-walk probe, kept as the oracle: from the longest
// prefix down, re-collect every tree's prefix range at that depth, sort,
// compact, and stop at the first depth whose distinct count meets the
// budget (or at depth 1). It returns the sorted candidate set and the
// stop depth.
func queryIntoReference(f *Forest, sig []uint32, minResults int) ([]int32, int, error) {
	if err := f.ready("Query", sig); err != nil {
		return nil, 0, err
	}
	if minResults <= 0 {
		minResults = 1
	}
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	var region []int32
	for depth := f.hashesPerTree; ; depth-- {
		region = region[:0]
		for t := 0; t < f.numTrees; t++ {
			tree := &f.trees[t]
			f.keyInto(key, t, sig)
			lo, hi := f.prefixRange(tree, key, depth)
			region = append(region, tree.ids[lo:hi]...)
		}
		slices.Sort(region)
		region = slices.Compact(region)
		if len(region) >= minResults || depth == 1 {
			return region, depth, nil
		}
	}
}

// checkProbe compares the one-walk probe with the descent for one
// signature and budget: same set, same stop depth, ids distinct, the dst
// prefix untouched. QueryInto (the forest-owned scratch) must agree too.
func checkProbe(t *testing.T, f *Forest, sig []uint32, budget int, s *DepthScratch, label string) {
	t.Helper()
	want, wantDepth, err := queryIntoReference(f, sig, budget)
	if err != nil {
		t.Fatal(err)
	}
	got, depth, err := f.Probe(sig, budget, []int32{-7}, s)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -7 {
		t.Fatalf("%s budget %d: Probe clobbered the dst prefix", label, budget)
	}
	if depth != wantDepth {
		t.Fatalf("%s budget %d: stop depth %d, the descent stops at %d", label, budget, depth, wantDepth)
	}
	sorted := slices.Clone(got[1:])
	slices.Sort(sorted)
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s budget %d: Probe set differs from the descent's (%d vs %d ids)", label, budget, len(sorted), len(want))
	}
	if len(slices.Compact(sorted)) != len(got)-1 {
		t.Fatalf("%s budget %d: Probe returned duplicate ids", label, budget)
	}
	into, err := f.QueryInto(sig, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(into, got[1:]) {
		t.Fatalf("%s budget %d: QueryInto differs from Probe", label, budget)
	}
}

// probeBudgets are the budgets every property below runs: the clamped
// ones, one below and one above the typical candidate count, and the two
// around "the whole forest".
func probeBudgets(f *Forest) []int {
	return []int{0, 1, 2, 64, f.Len(), f.Len() + 1}
}

// TestProbeMatchesDescent property-tests the one-walk probe against the
// retired descent over the layouts DepthCounts is tested on, including
// 1×1 and keys that outgrow keyStackBytes, with one scratch shared
// across layouts the way a worker shares it across the four forests.
func TestProbeMatchesDescent(t *testing.T) {
	layouts := []struct{ trees, hashes int }{{8, 32}, {1, 1}, {3, 5}, {2, keyStackBytes + 16}}
	var s DepthScratch
	for _, l := range layouts {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			f := MustForest(l.trees, l.hashes)
			n := 1 + rng.Intn(300)
			sigs := make([][]uint32, n)
			for i := range sigs {
				sigs[i] = randomSig(rng, f.MinSignatureLen(), 2+rng.Intn(3))
				if err := f.Add(int32(i), sigs[i]); err != nil {
					t.Fatal(err)
				}
			}
			f.Index()
			for i := 0; i < 20; i++ {
				label := fmt.Sprintf("layout %dx%d seed %d probe %d", l.trees, l.hashes, seed, i)
				indexed, fresh := sigs[rng.Intn(n)], randomSig(rng, f.MinSignatureLen(), 4)
				for _, budget := range probeBudgets(f) {
					checkProbe(t, f, indexed, budget, &s, label+" (indexed)")
					checkProbe(t, f, fresh, budget, &s, label+" (fresh)")
				}
			}
		}
	}
}

// TestProbeMinHashForest repeats the comparison on real MinHash
// signatures, where matches are deep for near-duplicates and shallow for
// everything else.
func TestProbeMinHashForest(t *testing.T) {
	f, sigs := randomForest(t, 7, 120)
	var s DepthScratch
	for i, sig := range sigs {
		for _, budget := range probeBudgets(f) {
			checkProbe(t, f, sig, budget, &s, fmt.Sprintf("sig %d", i))
		}
	}
}

// TestProbeDuplicateHeavy is the format forest's shape: a handful of
// distinct signatures shared by hundreds of ids, so the stop depth is
// the full key and the answer a long run of full matches.
func TestProbeDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := MustForest(8, 32)
	shapes := make([][]uint32, 6)
	for i := range shapes {
		shapes[i] = randomSig(rng, f.MinSignatureLen(), 3)
	}
	for id := 0; id < 900; id++ {
		if err := f.Add(int32(id), shapes[rng.Intn(len(shapes))]); err != nil {
			t.Fatal(err)
		}
	}
	f.Index()
	var s DepthScratch
	for i, sig := range shapes {
		for _, budget := range probeBudgets(f) {
			checkProbe(t, f, sig, budget, &s, fmt.Sprintf("shape %d", i))
		}
		if _, depth, _ := f.Probe(sig, 64, nil, &s); depth != 32 {
			t.Fatalf("shape %d: stop depth %d, want the full key: the fixture is not duplicate-heavy", i, depth)
		}
	}
}

// TestProbeEmptyForest pins the answer of an indexed forest with no
// entries: no candidates, stop depth 1.
func TestProbeEmptyForest(t *testing.T) {
	f := MustForest(4, 8)
	f.Index()
	var s DepthScratch
	for _, budget := range probeBudgets(f) {
		checkProbe(t, f, make([]uint32, 32), budget, &s, "empty")
	}
	got, depth, err := f.Probe(make([]uint32, 32), 10, nil, &s)
	if err != nil || len(got) != 0 || depth != 1 {
		t.Fatalf("empty forest: ids %v depth %d err %v, want none at depth 1", got, depth, err)
	}
}

// TestProbeAfterMutations interleaves Insert and Delete on an indexed
// forest and re-checks the probe after every step, with one scratch
// living across the whole history (stale stamps of deleted ids must
// never be emitted).
func TestProbeAfterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := MustForest(4, 8)
	f.Index()
	live := map[int32][]uint32{}
	var s DepthScratch
	next := int32(0)
	for step := 0; step < 300; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			sig := randomSig(rng, f.MinSignatureLen(), 3)
			if err := f.Insert(next, sig); err != nil {
				t.Fatal(err)
			}
			live[next] = sig
			next++
		} else {
			for id, sig := range live {
				if ok, err := f.Delete(id, sig); err != nil || !ok {
					t.Fatalf("step %d: delete %d: ok=%v err=%v", step, id, ok, err)
				}
				delete(live, id)
				break
			}
		}
		sig := randomSig(rng, f.MinSignatureLen(), 3)
		for _, budget := range probeBudgets(f) {
			checkProbe(t, f, sig, budget, &s, fmt.Sprintf("step %d", step))
		}
		ids, _, err := f.Probe(sig, f.Len()+1, nil, &s)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if _, ok := live[id]; !ok {
				t.Fatalf("step %d: probe emitted deleted id %d", step, id)
			}
		}
	}
}

// TestStopDepth pins the stop rule on hand-written count vectors, in
// both widths its callers use.
func TestStopDepth(t *testing.T) {
	cases := []struct {
		counts []int32
		budget int
		want   int
	}{
		{[]int32{9, 5, 5, 2, 0}, 1, 4},
		{[]int32{9, 5, 5, 2, 0}, 2, 4},
		{[]int32{9, 5, 5, 2, 0}, 3, 3},
		{[]int32{9, 5, 5, 2, 0}, 9, 1},
		{[]int32{9, 5, 5, 2, 0}, 10, 1}, // unmet: depth 1
		{[]int32{9, 5, 5, 2, 0}, 0, 4},  // clamped to 1
		{[]int32{9, 5, 5, 2, 0}, -3, 4},
		{[]int32{0, 0, 0}, 1, 1},
		{[]int32{7}, 100, 1},
		{[]int32{3, 3, 3}, 3, 3},
	}
	for _, c := range cases {
		if got := StopDepth(c.counts, c.budget); got != c.want {
			t.Errorf("StopDepth(%v, %d) = %d, want %d", c.counts, c.budget, got, c.want)
		}
		wide := make([]int64, len(c.counts))
		for i, v := range c.counts {
			wide[i] = int64(v)
		}
		if got := StopDepth(wide, c.budget); got != c.want {
			t.Errorf("StopDepth(int64 %v, %d) = %d, want %d", wide, c.budget, got, c.want)
		}
	}
}

// TestQueryIntoAllocs pins the warm-path allocation contract of both
// entry points: a probe into a warmed buffer allocates nothing, on the
// caller's scratch and on the forest's own.
func TestQueryIntoAllocs(t *testing.T) {
	f, sigs := randomForest(t, 9, 200)
	buf := make([]int32, 0, 4096)
	var s DepthScratch
	if _, _, err := f.Probe(sigs[0], 50, buf[:0], &s); err != nil {
		t.Fatal(err)
	}
	if _, err := f.QueryInto(sigs[0], 50, buf[:0]); err != nil {
		t.Fatal(err)
	}
	probe := testing.AllocsPerRun(100, func() {
		var err error
		if buf, _, err = f.Probe(sigs[1], 50, buf[:0], &s); err != nil {
			t.Fatal(err)
		}
	})
	if probe != 0 {
		t.Fatalf("Probe allocates %.1f per run into a warmed buffer and scratch, want 0", probe)
	}
	into := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = f.QueryInto(sigs[1], 50, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if into != 0 && !raceEnabled {
		t.Fatalf("QueryInto allocates %.1f per run into a warmed buffer, want 0", into)
	}
}

// TestProbeErrors pins the validation paths the two entry points share.
func TestProbeErrors(t *testing.T) {
	f := MustForest(4, 8)
	var s DepthScratch
	if _, _, err := f.Probe(make([]uint32, 64), 1, nil, &s); err == nil {
		t.Fatal("expected Probe-before-Index error")
	}
	if err := f.Add(-3, make([]uint32, 64)); err != nil {
		t.Fatal(err)
	}
	f.Index()
	if _, _, err := f.Probe(make([]uint32, 3), 1, nil, &s); err == nil {
		t.Fatal("expected short-signature error")
	}
	if _, _, err := f.Probe(make([]uint32, 64), 1, nil, &s); err == nil {
		t.Fatal("expected negative-id error")
	}
	if _, err := f.QueryInto(make([]uint32, 64), 1, nil); err == nil {
		t.Fatal("expected negative-id error from QueryInto")
	}
}
