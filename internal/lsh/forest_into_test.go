package lsh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"d3l/internal/minhash"
)

// randomForest indexes n random token-set signatures and returns the
// forest plus the signatures, for set-equivalence checks between the
// map-based Query and the allocation-free probes.
func randomForest(t *testing.T, seed int64, n int) (*Forest, [][]uint32) {
	t.Helper()
	h := minhash.MustHasher(256, 42)
	f := MustForest(8, 32)
	rng := rand.New(rand.NewSource(seed))
	sigs := make([][]uint32, n)
	for i := 0; i < n; i++ {
		tokens := make([]string, 4+rng.Intn(8))
		for j := range tokens {
			tokens[j] = fmt.Sprintf("tok_%d", rng.Intn(40))
		}
		sigs[i] = sketchFor(h, tokens)
		if err := f.Add(int32(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	f.Index()
	return f, sigs
}

func sortedSet(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestQueryIntoMatchesQuery checks that QueryInto returns exactly
// Query's candidate set (each id once) for every indexed signature
// across a spread of minResults values, and that it appends after any
// existing dst prefix rather than clobbering it.
func TestQueryIntoMatchesQuery(t *testing.T) {
	f, sigs := randomForest(t, 1, 120)
	var buf []int32
	for i, sig := range sigs {
		for _, minResults := range []int{0, 1, 5, 40, 1000} {
			want, err := f.Query(sig, minResults)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf[:0], -7) // sentinel prefix must survive
			got, err := f.QueryInto(sig, minResults, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != -7 {
				t.Fatalf("QueryInto clobbered the dst prefix")
			}
			buf = got
			if !slices.Equal(sortedSet(want), sortedSet(got[1:])) {
				t.Fatalf("sig %d minResults %d: QueryInto set differs from Query (%d vs %d ids)",
					i, minResults, len(got)-1, len(want))
			}
			if len(sortedSet(got[1:])) != len(got)-1 {
				t.Fatalf("sig %d: QueryInto region holds duplicate ids", i)
			}
		}
	}
}

// TestCollectMinDepthClampsAndAppends pins what the every-depth set
// comparison of checkDepthCounts does not reach: a depth outside
// [1, hashesPerTree] collects at the nearest bound, and the region is
// appended after dst's prefix.
func TestCollectMinDepthClampsAndAppends(t *testing.T) {
	f, sigs := randomForest(t, 2, 80)
	buf := []int32{-7}
	for i, sig := range sigs {
		for asked, depth := range map[int]int{0: 1, -3: 1, 99: 32} {
			got, err := f.CollectMinDepth(sig, asked, buf[:1])
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != -7 {
				t.Fatal("CollectMinDepth clobbered the dst prefix")
			}
			buf = got
			if !slices.Equal(sortedSet(got[1:]), depthSetReference(f, sig, depth)) {
				t.Fatalf("sig %d: depth %d did not collect depth %d's set", i, asked, depth)
			}
		}
	}
}

// TestQueryIntoErrors pins the error paths of the Into probes.
func TestQueryIntoErrors(t *testing.T) {
	f := MustForest(4, 8)
	if _, err := f.QueryInto(make([]uint32, 64), 1, nil); err == nil {
		t.Fatal("expected Query-before-Index error")
	}
	if err := f.Add(1, make([]uint32, 64)); err != nil {
		t.Fatal(err)
	}
	f.Index()
	if _, err := f.QueryInto(make([]uint32, 3), 1, nil); err == nil {
		t.Fatal("expected short-signature error")
	}
	if _, err := f.CollectMinDepth(make([]uint32, 3), 2, nil); err == nil {
		t.Fatal("expected short-signature error from CollectMinDepth")
	}
}

// TestForestProbeAndMutateAllocs pins the allocation behaviour the
// query hot path and index builds rely on: a QueryInto probe into a
// warmed buffer allocates nothing, and Add/Insert allocate only the
// amortised growth of the trees themselves (no per-tree key garbage).
func TestForestProbeAndMutateAllocs(t *testing.T) {
	f, sigs := randomForest(t, 3, 200)
	buf := make([]int32, 0, 4096)
	probe := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = f.QueryInto(sigs[0], 50, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if probe != 0 && !raceEnabled {
		t.Fatalf("QueryInto allocates %.1f per probe into a warmed buffer, want 0", probe)
	}
	minDepth := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = f.CollectMinDepth(sigs[1], 8, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if minDepth != 0 {
		t.Fatalf("CollectMinDepth allocates %.1f per probe, want 0", minDepth)
	}
	// Insert/Delete round trips must not leave per-tree key slices
	// behind; tree array growth is amortised and the round trip leaves
	// sizes unchanged, so steady state is allocation-free.
	ins := testing.AllocsPerRun(100, func() {
		if err := f.Insert(9999, sigs[2]); err != nil {
			t.Fatal(err)
		}
		if ok, err := f.Delete(9999, sigs[2]); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
	})
	if ins > 1 { // one alloc of slack tolerated for append growth crossings
		t.Fatalf("Insert+Delete allocates %.1f per round trip, want ~0", ins)
	}
}
