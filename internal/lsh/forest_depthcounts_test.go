package lsh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// depthSetReference is the per-depth collect the probes shipped with
// before the one-walk rewrite, kept as the oracle: each tree's prefix
// range at one depth, sorted and compacted. Obviously right.
func depthSetReference(f *Forest, sig []uint32, depth int) []int32 {
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	var ids []int32
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t]
		f.keyInto(key, t, sig)
		lo, hi := f.prefixRange(tree, key, depth)
		ids = append(ids, tree.ids[lo:hi]...)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// depthCountsReference counts the oracle's set at every depth:
// hashesPerTree passes.
func depthCountsReference(f *Forest, sig []uint32) ([]int32, error) {
	if err := f.ready("DepthCounts", sig); err != nil {
		return nil, err
	}
	counts := make([]int32, f.hashesPerTree)
	for depth := 1; depth <= f.hashesPerTree; depth++ {
		counts[depth-1] = int32(len(depthSetReference(f, sig, depth)))
	}
	return counts, nil
}

// checkDepthCounts compares the one-walk probe with the reference for
// one signature, reusing the caller's scratch the way the engine does,
// and at every depth the raw imposed-depth collect with the oracle's
// set: CollectMinDepth may repeat an id and promises no order, so the
// comparison is as a set.
func checkDepthCounts(t *testing.T, f *Forest, sig []uint32, s *DepthScratch, label string) []int32 {
	t.Helper()
	want, err := depthCountsReference(f, sig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DepthCounts(sig, s)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: one-walk DepthCounts\n got  %v\n want %v", label, got, want)
	}
	for d := 1; d < len(got); d++ {
		if got[d] > got[d-1] {
			t.Fatalf("%s: counts increase from depth %d to %d: %v", label, d, d+1, got)
		}
	}
	var raw []int32
	for d := 1; d <= f.hashesPerTree; d++ {
		if raw, err = f.CollectMinDepth(sig, d, raw[:0]); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedSet(raw), depthSetReference(f, sig, d)) {
			t.Fatalf("%s: CollectMinDepth at depth %d is not the oracle's set (%d raw ids)", label, d, len(raw))
		}
	}
	return got
}

// randomSig draws a signature whose byte keys share long prefixes with
// other draws from the same (small) alphabet, so every depth sees
// partial matches, full matches and misses.
func randomSig(rng *rand.Rand, n, alphabet int) []uint32 {
	sig := make([]uint32, n)
	for i := range sig {
		sig[i] = uint32(rng.Intn(alphabet))
	}
	return sig
}

// TestDepthCountsMatchesReference property-tests the one-walk probe
// against the per-depth reference over random forests of several
// layouts, including a layout whose keys outgrow keyStackBytes.
func TestDepthCountsMatchesReference(t *testing.T) {
	layouts := []struct{ trees, hashes int }{{8, 32}, {1, 1}, {3, 5}, {2, keyStackBytes + 16}}
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
			var s DepthScratch
			for i := 0; i < 40; i++ {
				label := fmt.Sprintf("layout %dx%d seed %d probe %d", l.trees, l.hashes, seed, i)
				checkDepthCounts(t, f, sigs[rng.Intn(n)], &s, label+" (indexed)")
				checkDepthCounts(t, f, randomSig(rng, f.MinSignatureLen(), 4), &s, label+" (fresh)")
			}
		}
	}
}

// TestDepthCountsMinHashForest repeats the comparison on real MinHash
// signatures.
func TestDepthCountsMinHashForest(t *testing.T) {
	f, sigs := randomForest(t, 11, 90)
	var s DepthScratch
	for i, sig := range sigs {
		if counts := checkDepthCounts(t, f, sig, &s, fmt.Sprintf("sig %d", i)); len(counts) != 32 {
			t.Fatalf("sig %d: got %d depths, want 32", i, len(counts))
		}
	}
}

// TestDepthCountsDuplicateHeavy is the format forest's shape: a handful
// of distinct signatures shared by hundreds of ids, so every depth of
// every tree matches a long run of entries.
func TestDepthCountsDuplicateHeavy(t *testing.T) {
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
		counts := checkDepthCounts(t, f, sig, &s, fmt.Sprintf("shape %d", i))
		if counts[len(counts)-1] < 100 {
			t.Fatalf("shape %d: only %d full-depth matches, the fixture is not duplicate-heavy", i, counts[len(counts)-1])
		}
	}
}

// TestDepthCountsAfterMutations interleaves Insert and Delete on an
// indexed forest and re-checks the probe after every step, with one
// scratch living across the whole history (stale stamps of deleted ids
// must never count).
func TestDepthCountsAfterMutations(t *testing.T) {
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
		counts := checkDepthCounts(t, f, randomSig(rng, f.MinSignatureLen(), 3), &s, fmt.Sprintf("step %d", step))
		if int(counts[0]) > len(live) {
			t.Fatalf("step %d: %d depth-1 candidates with %d live ids", step, counts[0], len(live))
		}
	}
}

// TestDepthCountsEmptyForest pins the all-zero vector of an indexed
// forest with no entries (a shard that owns none of the lake).
func TestDepthCountsEmptyForest(t *testing.T) {
	f := MustForest(4, 8)
	f.Index()
	counts, err := f.DepthCounts(make([]uint32, 32), new(DepthScratch))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(counts, make([]int32, 8)) {
		t.Fatalf("empty forest counts %v, want all zero", counts)
	}
}

// TestDepthCountsAdditiveAcrossShards pins the property the sharded
// probe protocol depends on: when the indexed id set is partitioned
// across forests with the same layout, the per-depth counts of the
// parts sum to the counts of the whole — at any shard count, with an
// empty shard, and with one scratch shared by all of them.
func TestDepthCountsAdditiveAcrossShards(t *testing.T) {
	full, sigs := randomForest(t, 12, 100)
	for _, n := range []int{2, 3, 5} {
		shards := make([]*Forest, n+1) // the last shard stays empty
		for i := range shards {
			shards[i] = MustForest(8, 32)
		}
		for i, sig := range sigs {
			if err := shards[(i*7)%n].Add(int32(i), sig); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range shards {
			sh.Index()
		}
		var s DepthScratch
		for i, sig := range sigs {
			want, err := full.DepthCounts(sig, &s)
			if err != nil {
				t.Fatal(err)
			}
			sum := make([]int32, len(want))
			for _, sh := range shards {
				c, err := sh.DepthCounts(sig, &s)
				if err != nil {
					t.Fatal(err)
				}
				for d := range sum {
					sum[d] += c[d]
				}
			}
			if !slices.Equal(want, sum) {
				t.Fatalf("%d shards, sig %d: shard counts sum to %v, monolith %v", n, i, sum, want)
			}
		}
	}
}

// TestDepthCountsAllocs pins the steady-state budget: a probe into a
// grown scratch allocates its count vector and nothing else.
func TestDepthCountsAllocs(t *testing.T) {
	f, sigs := randomForest(t, 3, 200)
	var s DepthScratch
	if _, err := f.DepthCounts(sigs[0], &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.DepthCounts(sigs[1], &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("DepthCounts allocates %.1f per probe into a grown scratch, want 1 (the count vector)", allocs)
	}
}

// TestDepthCountsErrors pins the validation paths.
func TestDepthCountsErrors(t *testing.T) {
	f := MustForest(4, 8)
	var s DepthScratch
	if _, err := f.DepthCounts(make([]uint32, 64), &s); err == nil {
		t.Fatal("expected DepthCounts-before-Index error")
	}
	if err := f.Add(1, make([]uint32, 64)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(-3, make([]uint32, 64)); err != nil {
		t.Fatal(err)
	}
	f.Index()
	if _, err := f.DepthCounts(make([]uint32, 3), &s); err == nil {
		t.Fatal("expected short-signature error")
	}
	if _, err := f.DepthCounts(make([]uint32, 64), &s); err == nil {
		t.Fatal("expected negative-id error")
	}
}
