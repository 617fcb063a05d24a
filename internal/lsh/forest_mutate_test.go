package lsh

import (
	"math/rand"
	"sort"
	"testing"

	"d3l/internal/minhash"
)

// sortedIDs canonicalises a candidate list for set comparison.
func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestForestInsertEqualsBuild checks that a forest grown by Insert
// after Index answers queries identically to one built with Add+Index
// over the same items.
func TestForestInsertEqualsBuild(t *testing.T) {
	h := minhash.MustHasher(256, 41)
	rng := rand.New(rand.NewSource(17))
	sets := buildTokenSets(120, 40, rng, 800)
	sigs := make([][]uint32, len(sets))
	for i, s := range sets {
		sigs[i] = sketchFor(h, s)
	}

	full := MustForest(8, 32)
	for i := range sigs {
		if err := full.Add(int32(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	full.Index()

	grown := MustForest(8, 32)
	for i := 0; i < 60; i++ {
		if err := grown.Add(int32(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	grown.Index()
	for i := 60; i < len(sigs); i++ {
		if err := grown.Insert(int32(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}

	if full.Len() != grown.Len() {
		t.Fatalf("Len mismatch: %d vs %d", full.Len(), grown.Len())
	}
	for q := 0; q < len(sigs); q += 7 {
		a, err := full.Query(sigs[q], 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := grown.Query(sigs[q], 20)
		if err != nil {
			t.Fatal(err)
		}
		as, bs := sortedIDs(a), sortedIDs(b)
		if len(as) != len(bs) {
			t.Fatalf("query %d: candidate counts differ: %d vs %d", q, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("query %d: candidate sets differ at %d: %d vs %d", q, i, as[i], bs[i])
			}
		}
	}
}

// TestForestDeleteRemovesItem checks that a deleted item never appears
// in query answers while the survivors remain reachable.
func TestForestDeleteRemovesItem(t *testing.T) {
	h := minhash.MustHasher(256, 43)
	rng := rand.New(rand.NewSource(23))
	sets := buildTokenSets(80, 40, rng, 600)
	sigs := make([][]uint32, len(sets))
	f := MustForest(8, 32)
	for i, s := range sets {
		sigs[i] = sketchFor(h, s)
		if err := f.Add(int32(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	f.Index()

	const victim = 33
	found, err := f.Delete(victim, sigs[victim])
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("Delete did not find an indexed item")
	}
	if f.Len() != len(sigs)-1 {
		t.Fatalf("Len = %d after delete, want %d", f.Len(), len(sigs)-1)
	}
	// Even a full-forest scan (prefix depth descends to 1) must not
	// surface the victim.
	got, err := f.Query(sigs[victim], len(sigs))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if id == victim {
			t.Fatal("deleted item still retrieved")
		}
	}
	// A survivor queried with its own signature stays reachable.
	got, err = f.Query(sigs[10], 5)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, id := range got {
		if id == 10 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("survivor unreachable after unrelated delete")
	}
	// Double delete reports not-found without error.
	found, err = f.Delete(victim, sigs[victim])
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("second Delete of the same id reported found")
	}
}

// TestForestMutateValidation covers the error paths of Insert/Delete.
func TestForestMutateValidation(t *testing.T) {
	f := MustForest(4, 8)
	if _, err := f.Delete(1, make([]uint32, 32)); err == nil {
		t.Fatal("expected delete-before-index error")
	}
	// Insert before Index behaves like Add, including validation.
	if err := f.Insert(1, make([]uint32, 10)); err == nil {
		t.Fatal("expected short-signature error")
	}
	if err := f.Insert(1, make([]uint32, 32)); err != nil {
		t.Fatal(err)
	}
	f.Index()
	if err := f.Insert(2, make([]uint32, 10)); err == nil {
		t.Fatal("expected short-signature error after index")
	}
	if _, err := f.Delete(1, make([]uint32, 10)); err == nil {
		t.Fatal("expected short-signature error on delete")
	}
}
