package lsh

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// buildCase is one input of the Build oracle: a layout, the signature
// kind, and where signatures come from — values drawn modulo alphabet,
// or with pool > 0 one of pool such signatures, so that nearly every key
// repeats.
type buildCase struct {
	trees, hashes, alphabet, pool, items int
	bits                                 bool // BitKeys over SimHash-shaped signatures
}

// buildInput draws a case's signatures by id. A pooled signature is the
// pool's own slice for even ids and a copy for odd ones, so that equal
// keys are compared both as one shared signature and as two.
func buildInput(rng *rand.Rand, c buildCase) (sigs [][]uint32, bits []BitSignature) {
	n := c.trees * c.hashes
	words := (n + 7) / 8
	drawBits := func() BitSignature {
		b := make(BitSignature, words)
		for i := range b {
			for k := range 8 {
				b[i] |= uint64(rng.Intn(c.alphabet)) << (8 * k)
			}
		}
		return b
	}
	var pool [][]uint32
	var bitPool []BitSignature
	for range c.pool {
		pool = append(pool, randomSig(rng, n, c.alphabet))
		bitPool = append(bitPool, drawBits())
	}
	for id := range c.items {
		switch {
		case c.bits && c.pool > 0:
			b := bitPool[rng.Intn(c.pool)]
			if id%2 == 1 {
				b = slices.Clone(b)
			}
			bits = append(bits, b)
		case c.bits:
			bits = append(bits, drawBits())
		case c.pool > 0:
			s := pool[rng.Intn(c.pool)]
			if id%2 == 1 {
				s = slices.Clone(s)
			}
			sigs = append(sigs, s)
		default:
			sigs = append(sigs, randomSig(rng, n, c.alphabet))
		}
	}
	if c.bits {
		for _, b := range bits {
			sigs = append(sigs, b.HashValues())
		}
	}
	return sigs, bits
}

// keysOf is the Keys Build reads a case's signatures through.
func keysOf(c buildCase, sigs [][]uint32, bits []BitSignature) Keys {
	if c.bits {
		return BitKeys(func(id int32) BitSignature { return bits[id] })
	}
	return SigKeys(func(id int32) []uint32 { return sigs[id] })
}

// TestBuildMatchesReference is the oracle of the sort-and-pack routine:
// on random inputs, in a shuffled insertion order, Build leaves trees
// identical — keys, ids and the order of ids under equal keys — to the
// one-array reference, whose sort is the one Add and Index ran before
// sortPack, and so does Add and Index today; and both answer every read
// like it. The inputs include I_N-shaped 8×32 forests over fewer than 20
// distinct signatures and I_E-shaped 4×8 forests over bit signatures.
func TestBuildMatchesReference(t *testing.T) {
	cases := []buildCase{
		{trees: 1, hashes: 1, alphabet: 3, items: 40},
		{trees: 2, hashes: 3, alphabet: 3, items: 200},
		{trees: 4, hashes: 8, alphabet: 4, items: 700},
		{trees: 8, hashes: 32, alphabet: 256, pool: 19, items: 600},          // I_N
		{trees: 8, hashes: 32, alphabet: 4, pool: 6, items: 400},             // I_F
		{trees: 8, hashes: 32, alphabet: 256, items: 300},                    // I_V
		{trees: 4, hashes: 8, alphabet: 256, items: 500, bits: true},         // I_E
		{trees: 4, hashes: 8, alphabet: 2, pool: 12, items: 500, bits: true}, // I_E, repeated
		{trees: 3, hashes: 5, alphabet: 3, pool: 9, items: 300, bits: true},  // keys across words
		{trees: 8, hashes: 32, alphabet: 256, pool: 3, items: 0},             // empty
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("%dx%d bits=%v pool %d seed %d", c.trees, c.hashes, c.bits, c.pool, seed)
			rng := rand.New(rand.NewSource(seed))
			sigs, bits := buildInput(rng, c)
			order := make([]int32, c.items)
			for i := range order {
				order[i] = int32(i)
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

			ref, staged := newRefForest(c.trees, c.hashes), MustForest(c.trees, c.hashes)
			for _, id := range order {
				ref.add(id, sigs[id])
				if err := staged.Add(id, sigs[id]); err != nil {
					t.Fatal(err)
				}
			}
			ref.index()
			staged.Index()
			built := MustForest(c.trees, c.hashes)
			if err := built.Build(slices.Clone(order), keysOf(c, sigs, bits)); err != nil {
				t.Fatal(err)
			}
			queries := [][]uint32{randomSig(rng, c.trees*c.hashes, c.alphabet)}
			for i := 0; i < c.items && len(queries) < 6; i += 1 + c.items/5 {
				queries = append(queries, sigs[i])
			}
			var s DepthScratch
			checkSameAnswers(t, built, ref, queries, &s, label+": Build")
			checkSameAnswers(t, staged, ref, queries, &s, label+": Add and Index")
		}
	}
}

// TestBuildAfterChurnMatchesCompaction: Build over the live ids of a
// forest that a history of inserts and deletes left with a delta and
// dead ids gives the trees a reference built from those ids alone gives,
// and answers every set-valued read — Probe's set and depth,
// DepthCounts, CollectMinDepth as a multiset — like the churned forest.
// That is what a load, which rebuilds the forests of a churned engine,
// relies on.
func TestBuildAfterChurnMatchesCompaction(t *testing.T) {
	for _, c := range []buildCase{
		{trees: 3, hashes: 4, alphabet: 3, items: 300},
		{trees: 8, hashes: 32, alphabet: 256, pool: 17, items: 400},
	} {
		rng := rand.New(rand.NewSource(5))
		sigs, _ := buildInput(rng, c)
		f := MustForest(c.trees, c.hashes)
		for id := range c.items / 2 {
			if err := f.Add(int32(id), sigs[id]); err != nil {
				t.Fatal(err)
			}
		}
		f.Index()
		live := map[int32]bool{}
		for id := range c.items / 2 {
			live[int32(id)] = true
		}
		for id := c.items / 2; id < c.items; id++ {
			if err := f.Insert(int32(id), sigs[id]); err != nil {
				t.Fatal(err)
			}
			live[int32(id)] = true
			if victim := int32(rng.Intn(id + 1)); live[victim] && rng.Intn(3) == 0 {
				if ok, err := f.Delete(victim, sigs[victim]); err != nil || !ok {
					t.Fatalf("Delete %d: %v %v", victim, ok, err)
				}
				delete(live, victim)
			}
		}
		if f.clean() {
			t.Fatal("the history left no delta or dead ids: it tests nothing")
		}
		ids := slices.Sorted(maps.Keys(live))
		ref := newRefForest(c.trees, c.hashes)
		for _, id := range ids {
			ref.add(id, sigs[id])
		}
		ref.index()
		built := MustForest(c.trees, c.hashes)
		if err := built.Build(slices.Clone(ids), SigKeys(func(id int32) []uint32 { return sigs[id] })); err != nil {
			t.Fatal(err)
		}
		var s DepthScratch
		label := fmt.Sprintf("%dx%d pool %d", c.trees, c.hashes, c.pool)
		checkSameAnswers(t, built, ref, sigs[:8], &s, label)
		for qi, sig := range sigs[:20] {
			for _, budget := range []int{1, 5, len(ids) + 1} {
				got, gd, err := built.Probe(sig, budget, nil, &s)
				if err != nil {
					t.Fatal(err)
				}
				got = sortedIDs(got)
				want, wd, err := f.Probe(sig, budget, nil, &s)
				if err != nil {
					t.Fatal(err)
				}
				if gd != wd || !slices.Equal(got, sortedIDs(want)) {
					t.Fatalf("%s query %d budget %d: Probe after Build differs from the churned forest's", label, qi, budget)
				}
			}
			want, _ := f.DepthCounts(sig, &s)
			if got, _ := built.DepthCounts(sig, &s); !slices.Equal(got, want) {
				t.Fatalf("%s query %d: DepthCounts after Build differ from the churned forest's", label, qi)
			}
			for d := 1; d <= c.hashes; d++ {
				got, _ := built.CollectMinDepth(sig, d, nil)
				want, _ := f.CollectMinDepth(sig, d, nil)
				if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
					t.Fatalf("%s query %d depth %d: CollectMinDepth after Build differs from the churned forest's", label, qi, d)
				}
			}
		}
		if ge, gk := built.Shape(); ge != len(ids) {
			t.Fatalf("%s: Shape %d/%d after Build over %d ids", label, ge, gk, len(ids))
		} else if fe, fk := f.Shape(); fe != ge || fk != gk {
			t.Fatalf("%s: Shape %d/%d after Build, %d/%d on the churned forest", label, ge, gk, fe, fk)
		}
	}
}

// TestBuildRefusesMisuse: Build fills an empty forest once, from
// signatures long enough for its layout, and an indexed forest takes no
// Add.
func TestBuildRefusesMisuse(t *testing.T) {
	sigs := [][]uint32{{1, 2, 3, 4}, {5, 6}}
	keys := SigKeys(func(id int32) []uint32 { return sigs[id] })
	f := MustForest(2, 2)
	if err := f.Build([]int32{0, 1}, keys); err == nil {
		t.Fatal("Build accepted a signature shorter than the layout")
	}
	if err := f.Build([]int32{0}, keys); err != nil {
		t.Fatal(err)
	}
	if err := f.Build([]int32{0}, keys); err == nil {
		t.Fatal("Build of an indexed forest accepted")
	}
	if err := f.Add(1, sigs[0]); err == nil {
		t.Fatal("Add after Build accepted")
	}
	g := MustForest(2, 2)
	if err := g.Add(0, sigs[0]); err != nil {
		t.Fatal(err)
	}
	if err := g.Build([]int32{0}, keys); err == nil {
		t.Fatal("Build of a forest Add filled accepted")
	}
	if err := MustForest(1, 9).Build([]int32{0}, BitKeys(func(int32) BitSignature { return BitSignature{7} })); err == nil {
		t.Fatal("Build accepted a bit signature shorter than the layout")
	}
}
