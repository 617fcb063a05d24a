package lsh

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"d3l/internal/persist"
)

// refForest is the single-array forest the engine wrote to before the
// base + delta split, kept as the oracle: every tree one sorted run that
// insert splices into and remove shifts out of, exactly as Insert and
// Delete did then. Its delta and dead set stay empty, so the probes read
// it as that one run, which the descent oracles of the probe and
// depth-count tests pin on their own.
type refForest struct{ *Forest }

func (r refForest) insert(id int32, sig []uint32) {
	f := r.Forest
	h := f.hashesPerTree
	key := make([]byte, h)
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t].base
		f.keyInto(key, t, sig)
		n := len(tree.ids)
		pos := sort.Search(n, func(i int) bool {
			return bytes.Compare(tree.keys[i*h:i*h+h], key) >= 0
		})
		tree.keys = append(tree.keys, key...)
		copy(tree.keys[(pos+1)*h:], tree.keys[pos*h:n*h])
		copy(tree.keys[pos*h:], key)
		tree.ids = append(tree.ids, 0)
		copy(tree.ids[pos+1:], tree.ids[pos:n])
		tree.ids[pos] = id
	}
	f.count++
}

func (r refForest) remove(id int32, sig []uint32) bool {
	f := r.Forest
	h := f.hashesPerTree
	key := make([]byte, h)
	found := false
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t].base
		f.keyInto(key, t, sig)
		lo, hi := f.prefixRange(tree, key, h)
		for i := lo; i < hi; i++ {
			if tree.ids[i] != id {
				continue
			}
			n := len(tree.ids)
			copy(tree.keys[i*h:], tree.keys[(i+1)*h:n*h])
			tree.keys = tree.keys[:(n-1)*h]
			copy(tree.ids[i:], tree.ids[i+1:])
			tree.ids = tree.ids[:n-1]
			found = true
			break
		}
	}
	if found {
		f.count--
	}
	return found
}

// clean reports whether every tree is its base alone: an empty delta and
// no dead ids.
func (f *Forest) clean() bool { return len(f.trees[0].delta.ids) == 0 && f.dead.n == 0 }

// encoded is the forest's snapshot bytes.
func encoded(f *Forest) []byte {
	var b persist.Buffer
	f.Encode(&b)
	return b.Sealed()
}

// checkSameAnswers fails unless the base + delta forest f answers like
// the reference on every read: count, space, snapshot bytes, and per
// query signature Query (in order), Probe (set and stop depth),
// DepthCounts and CollectMinDepth at every depth (as multisets).
func checkSameAnswers(t testing.TB, f *Forest, ref refForest, queries [][]uint32, s *DepthScratch, label string) {
	t.Helper()
	if f.count != ref.count || f.SpaceBytes() != ref.SpaceBytes() {
		t.Fatalf("%s: count %d / %d B, reference %d / %d B", label, f.count, f.SpaceBytes(), ref.count, ref.SpaceBytes())
	}
	if !bytes.Equal(encoded(f), encoded(ref.Forest)) {
		t.Fatalf("%s: snapshot bytes differ from the reference's", label)
	}
	for qi, sig := range queries {
		for _, budget := range []int{1, 3, ref.count + 1} {
			got, err := f.Query(sig, budget)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ref.Query(sig, budget)
			if !slices.Equal(got, want) {
				t.Fatalf("%s query %d budget %d: Query\n got  %v\n want %v", label, qi, budget, got, want)
			}
			got, depth, err := f.Probe(sig, budget, nil, s)
			if err != nil {
				t.Fatal(err)
			}
			want, wantDepth, _ := ref.Probe(sig, budget, nil, s)
			if depth != wantDepth || !slices.Equal(sortedIDs(got), sortedIDs(want)) {
				t.Fatalf("%s query %d budget %d: Probe %v at depth %d, reference %v at depth %d",
					label, qi, budget, sortedIDs(got), depth, sortedIDs(want), wantDepth)
			}
		}
		got, err := f.DepthCounts(sig, s)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ref.DepthCounts(sig, s); !slices.Equal(got, want) {
			t.Fatalf("%s query %d: DepthCounts %v, reference %v", label, qi, got, want)
		}
		for d := 1; d <= f.hashesPerTree; d++ {
			got, _ := f.CollectMinDepth(sig, d, nil)
			want, _ := ref.CollectMinDepth(sig, d, nil)
			if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
				t.Fatalf("%s query %d depth %d: CollectMinDepth %v, reference %v", label, qi, d, sortedIDs(got), sortedIDs(want))
			}
		}
	}
}

// folds counts the folds a history triggered, by the write that did it.
type folds struct{ byInsert, byDelete int }

// runDeltaHistory drives a base + delta forest and the reference through
// one history of writes and checks them equal after every one. Initial
// items go in through Add and Index; then each byte op returns, until it
// reports false, picks the next write: insert a fresh id (under a fresh
// signature or a copy of a known one, so runs of equal keys form),
// delete a live id (base or delta), re-insert a deleted id under its old
// signature (the undo), or delete a deleted id again. arg supplies the
// rest: signature values (modulo alphabet) and which id a write picks.
func runDeltaHistory(t testing.TB, trees, hashes, alphabet, initial int, op func() (byte, bool), arg func() byte) folds {
	t.Helper()
	f, ref := MustForest(trees, hashes), refForest{MustForest(trees, hashes)}
	draw := func() []uint32 {
		sig := make([]uint32, f.MinSignatureLen())
		for i := range sig {
			sig[i] = uint32(int(arg()) % alphabet)
		}
		return sig
	}
	pick := func(ids []int32) int { return int(arg()) % len(ids) }
	var sigs [][]uint32 // by id
	var live, gone []int32
	for id := 0; id < initial; id++ {
		sigs = append(sigs, draw())
		if err := f.Add(int32(id), sigs[id]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(int32(id), sigs[id]); err != nil {
			t.Fatal(err)
		}
		live = append(live, int32(id))
	}
	f.Index()
	ref.Index()
	var s DepthScratch
	checkSameAnswers(t, f, ref, [][]uint32{draw()}, &s, "after Index")

	var seen folds
	for step := 0; ; step++ {
		b, ok := op()
		if !ok {
			return seen
		}
		pending := len(f.trees[0].delta.ids) + f.dead.n
		var id int32
		insert := true
		switch b % 5 {
		case 0, 1: // a fresh id
			id = int32(len(sigs))
			sig := draw()
			if b%5 == 1 && len(sigs) > 0 {
				sig = sigs[int(arg())%len(sigs)]
			}
			sigs = append(sigs, sig)
		case 2: // delete a live id
			if len(live) == 0 {
				continue
			}
			i := pick(live)
			id, insert = live[i], false
			live = slices.Delete(live, i, i+1)
			gone = append(gone, id)
		case 3: // the undo
			if len(gone) == 0 {
				continue
			}
			i := pick(gone)
			id = gone[i]
			gone = slices.Delete(gone, i, i+1)
		case 4: // double delete
			if len(gone) == 0 {
				continue
			}
			id, insert = gone[pick(gone)], false
		}
		label := fmt.Sprintf("step %d (op %d on id %d)", step, b%5, id)
		if insert {
			if err := f.Insert(id, sigs[id]); err != nil {
				t.Fatal(err)
			}
			ref.insert(id, sigs[id])
			live = append(live, id)
		} else {
			got, err := f.Delete(id, sigs[id])
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.remove(id, sigs[id]); got != want {
				t.Fatalf("%s: Delete found=%v, reference %v", label, got, want)
			}
		}
		// A write leaves nothing pending after holding at least foldMin
		// only by folding.
		if pending >= foldMin && f.clean() {
			if insert {
				seen.byInsert++
			} else {
				seen.byDelete++
			}
		}
		checkSameAnswers(t, f, ref, [][]uint32{sigs[id], draw()}, &s, label)
	}
}

// TestForestDeltaMatchesReference property-tests the base + delta forest
// against the single-array reference over random histories: phases that
// mostly insert and phases that mostly delete, so the fold threshold is
// crossed by inserts and by deletes, over layouts from 1×1 (every key
// equal to many) to 4×8, and bases both under and over foldMin*8 entries.
func TestForestDeltaMatchesReference(t *testing.T) {
	cases := []struct{ trees, hashes, alphabet, initial, steps int }{
		{1, 1, 3, 20, 400},
		{2, 3, 3, 60, 500},
		{4, 8, 4, 700, 600},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			steps := 0
			// Ops alternate between an insert-heavy and a delete-heavy
			// phase every 150; arguments are uniform bytes.
			op := func() (byte, bool) {
				if steps++; steps > c.steps {
					return 0, false
				}
				ops := []byte{0, 1, 3} // inserts
				if steps/150%2 == 1 {
					ops = []byte{2, 2, 2, 4} // deletes
				}
				return ops[rng.Intn(len(ops))], true
			}
			arg := func() byte { return byte(rng.Intn(256)) }
			seen := runDeltaHistory(t, c.trees, c.hashes, c.alphabet, c.initial, op, arg)
			if seen.byInsert == 0 || seen.byDelete == 0 {
				t.Errorf("%dx%d seed %d: folds by insert %d, by delete %d; the history must cross the threshold both ways",
					c.trees, c.hashes, seed, seen.byInsert, seen.byDelete)
			}
		}
	}
}

// FuzzForestDelta is the same comparison over histories the fuzzer
// writes: every byte an op or an argument.
func FuzzForestDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 200, 600} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		layout := data[0]
		trees, hashes := 1+int(layout%3), 1+int(layout/3%4)
		initial := int(data[1] % 100)
		data = data[2:]
		// One stream feeds both: an op byte, then its arguments.
		op := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		arg := func() byte { b, _ := op(); return b }
		runDeltaHistory(t, trees, hashes, 3, initial, op, arg)
	})
}
