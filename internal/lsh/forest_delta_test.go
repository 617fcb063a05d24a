package lsh

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refForest is the single-array forest the engine wrote to before the
// base + delta split and the distinct-key runs, kept as a standalone
// oracle with storage and reads of its own: every tree one sorted array
// with an h-byte key per id, which insert splices into at the head of
// its run of equal keys and remove shifts out of, and reads that scan
// that array the way the forest did then.
type refForest struct {
	numTrees, h, count int
	keys               [][]byte // per tree, one key per entry
	ids                [][]int32
}

func newRefForest(numTrees, h int) *refForest {
	return &refForest{numTrees: numTrees, h: h, keys: make([][]byte, numTrees), ids: make([][]int32, numTrees)}
}

// key is tree t's key for sig: the low byte of each of its h values.
func (r *refForest) key(t int, sig []uint32) []byte {
	key := make([]byte, r.h)
	for i := range key {
		key[i] = byte(sig[t*r.h+i])
	}
	return key
}

// add appends an entry to every tree, unsorted: the build phase.
func (r *refForest) add(id int32, sig []uint32) {
	for t := range r.numTrees {
		r.keys[t] = append(r.keys[t], r.key(t, sig)...)
		r.ids[t] = append(r.ids[t], id)
	}
	r.count++
}

// index sorts every tree by key with the forest's sort.Slice over the
// entry order, so entries under equal keys land in the same order.
func (r *refForest) index() {
	h := r.h
	for t := range r.numTrees {
		keys, ids := r.keys[t], r.ids[t]
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			return bytes.Compare(keys[order[x]*h:order[x]*h+h], keys[order[y]*h:order[y]*h+h]) < 0
		})
		sk, si := make([]byte, len(keys)), make([]int32, len(ids))
		for pos, idx := range order {
			copy(sk[pos*h:], keys[idx*h:idx*h+h])
			si[pos] = ids[idx]
		}
		r.keys[t], r.ids[t] = sk, si
	}
}

// span is tree t's entry range whose keys match the first depth bytes
// of key.
func (r *refForest) span(t int, key []byte, depth int) (int, int) {
	h, keys := r.h, r.keys[t]
	n := len(r.ids[t])
	lo := sort.Search(n, func(i int) bool { return bytes.Compare(keys[i*h:i*h+depth], key[:depth]) >= 0 })
	hi := sort.Search(n, func(i int) bool { return bytes.Compare(keys[i*h:i*h+depth], key[:depth]) > 0 })
	return lo, hi
}

func (r *refForest) insert(id int32, sig []uint32) {
	h := r.h
	for t := range r.numTrees {
		key := r.key(t, sig)
		pos, _ := r.span(t, key, h)
		r.keys[t] = slices.Insert(r.keys[t], pos*h, key...)
		r.ids[t] = slices.Insert(r.ids[t], pos, id)
	}
	r.count++
}

func (r *refForest) remove(id int32, sig []uint32) bool {
	h := r.h
	found := false
	for t := range r.numTrees {
		lo, hi := r.span(t, r.key(t, sig), h)
		if i := slices.Index(r.ids[t][lo:hi], id); i >= 0 {
			i += lo
			r.keys[t] = slices.Delete(r.keys[t], i*h, i*h+h)
			r.ids[t] = slices.Delete(r.ids[t], i, i+1)
			found = true
		}
	}
	if found {
		r.count--
	}
	return found
}

// region is every tree's entries matching sig on depth leading values,
// raw: CollectMinDepth's answer.
func (r *refForest) region(sig []uint32, depth int) []int32 {
	var out []int32
	for t := range r.numTrees {
		lo, hi := r.span(t, r.key(t, sig), depth)
		out = append(out, r.ids[t][lo:hi]...)
	}
	return out
}

// query is Query as one array per tree answered it: from the longest
// prefix down, every tree's range in array order, first-seen ids, until
// minResults are gathered.
func (r *refForest) query(sig []uint32, minResults int) []int32 {
	minResults = max(minResults, 1)
	seen := make(map[int32]bool)
	var out []int32
	for depth := r.h; depth >= 1 && len(out) < minResults; depth-- {
		for _, id := range r.region(sig, depth) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// descent is the sorted distinct region at every depth, sets[d-1] at
// depth d: DepthCounts is their sizes, and probe reads Probe off them.
func (r *refForest) descent(sig []uint32) (sets [][]int32) {
	for d := 1; d <= r.h; d++ {
		sets = append(sets, sortedSet(r.region(sig, d)))
	}
	return sets
}

// probe is Probe as a top-down descent over sets: the deepest set that
// holds budget ids, or depth 1's, and its depth.
func probe(sets [][]int32, budget int) ([]int32, int) {
	for depth := len(sets); ; depth-- {
		if set := sets[depth-1]; len(set) >= max(budget, 1) || depth == 1 {
			return set, depth
		}
	}
}

// clean reports whether every tree is its base alone: an empty delta and
// no dead ids.
func (f *Forest) clean() bool { return len(f.trees[0].delta.ids) == 0 && f.dead.n == 0 }

// expand appends to dst the run's keys as the one array holds them, one
// per id.
func (r *run) expand(dst []byte, h int) []byte {
	for i := range r.numKeys() {
		for range r.span(i, i+1) {
			dst = append(dst, r.key(i, h)...)
		}
	}
	return dst
}

// checkSameArrays fails unless every tree of f, in its merged form (base
// and delta as one run, dead ids left out), is the reference's one sorted
// array: the same key per entry and the same ids in the same order.
func checkSameArrays(t testing.TB, f *Forest, ref *refForest, label string) {
	t.Helper()
	for ti := range f.trees {
		r := f.merged(&f.trees[ti])
		if keys := r.expand(nil, f.hashesPerTree); !bytes.Equal(keys, ref.keys[ti]) || !slices.Equal(r.ids, ref.ids[ti]) {
			t.Fatalf("%s: tree %d holds ids %v, the reference %v (keys equal %v)", label, ti, r.ids, ref.ids[ti], bytes.Equal(keys, ref.keys[ti]))
		}
	}
}

// checkRuns fails unless every base and delta run of f keeps the layout
// invariant: keys strictly increasing, offsets one longer than the keys
// (or empty with the run), starting at 0, strictly increasing — no
// empty run — and ending at len(ids).
func checkRuns(t testing.TB, f *Forest, label string) {
	t.Helper()
	h := f.hashesPerTree
	for ti := range f.trees {
		for name, r := range map[string]*run{"base": &f.trees[ti].base, "delta": &f.trees[ti].delta} {
			where := fmt.Sprintf("%s: tree %d %s", label, ti, name)
			if len(r.off) == 0 {
				if len(r.keys) != 0 || len(r.ids) != 0 {
					t.Fatalf("%s: no offsets for %d key bytes and %d ids", where, len(r.keys), len(r.ids))
				}
				continue
			}
			if len(r.keys)%h != 0 || len(r.off) != len(r.keys)/h+1 || r.off[0] != 0 || int(r.off[len(r.off)-1]) != len(r.ids) {
				t.Fatalf("%s: %d key bytes, offsets %v over %d ids", where, len(r.keys), r.off, len(r.ids))
			}
			for i := 1; i < len(r.off); i++ {
				if r.off[i] <= r.off[i-1] {
					t.Fatalf("%s: key %d owns an empty run (offsets %v)", where, i-1, r.off)
				}
				if i > 1 && bytes.Compare(r.key(i-2, h), r.key(i-1, h)) >= 0 {
					t.Fatalf("%s: keys %d and %d are not strictly increasing", where, i-2, i-1)
				}
			}
		}
	}
}

// checkSameAnswers fails unless the forest f keeps its run invariant and
// answers like the reference on every read: count, space, the one-array
// trees (checkSameArrays), and per query signature Query (in order),
// Probe (set and stop depth), DepthCounts and CollectMinDepth at every
// depth (as multisets).
func checkSameAnswers(t testing.TB, f *Forest, ref *refForest, queries [][]uint32, s *DepthScratch, label string) {
	t.Helper()
	checkRuns(t, f, label)
	if want := int64(ref.numTrees) * int64(ref.count) * int64(ref.h+4); f.count != ref.count || f.SpaceBytes() != want {
		t.Fatalf("%s: count %d / %d B, reference %d / %d B", label, f.count, f.SpaceBytes(), ref.count, want)
	}
	checkSameArrays(t, f, ref, label)
	for qi, sig := range queries {
		sets := ref.descent(sig)
		for _, budget := range []int{1, 3, ref.count + 1} {
			got, err := f.Query(sig, budget)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.query(sig, budget); !slices.Equal(got, want) {
				t.Fatalf("%s query %d budget %d: Query\n got  %v\n want %v", label, qi, budget, got, want)
			}
			got, depth, err := f.Probe(sig, budget, nil, s)
			if err != nil {
				t.Fatal(err)
			}
			want, wantDepth := probe(sets, budget)
			if depth != wantDepth || !slices.Equal(sortedIDs(got), want) {
				t.Fatalf("%s query %d budget %d: Probe %v at depth %d, reference %v at depth %d",
					label, qi, budget, sortedIDs(got), depth, want, wantDepth)
			}
		}
		got, err := f.DepthCounts(sig, s)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, len(sets))
		for d, set := range sets {
			want[d] = int32(len(set))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s query %d: DepthCounts %v, reference %v", label, qi, got, want)
		}
		for d := 1; d <= f.hashesPerTree; d++ {
			got, _ := f.CollectMinDepth(sig, d, nil)
			if want := ref.region(sig, d); !slices.Equal(sortedIDs(got), sortedIDs(want)) {
				t.Fatalf("%s query %d depth %d: CollectMinDepth %v, reference %v", label, qi, d, sortedIDs(got), sortedIDs(want))
			}
		}
	}
}

// folds counts the folds a history triggered, by the write that did it.
type folds struct{ byInsert, byDelete int }

// shape is a history's forest layout and where its signatures come
// from: values drawn modulo alphabet, or with pool > 0 one of pool fixed
// such draws, so that nearly every key repeats — the shape of I_N and
// I_F, whose hundreds of entries per tree sit under a few dozen keys.
type shape struct{ trees, hashes, alphabet, pool int }

// runDeltaHistory drives a base + delta forest and the reference through
// one history of writes and checks them equal after every one. Initial
// items go in through Add and Index, or with build through Build (over
// SigKeys, in the same order); then each byte op returns, until it
// reports false, picks the next write: insert a fresh id (under a fresh
// signature or a copy of a known one, so runs of equal keys form),
// delete a live id (base or delta), re-insert a deleted id under its old
// signature (the undo), or delete a deleted id again. arg supplies the
// rest: signature values (modulo alphabet) or pool picks, and which id
// a write picks.
func runDeltaHistory(t testing.TB, sh shape, initial int, build bool, op func() (byte, bool), arg func() byte) folds {
	t.Helper()
	f, ref := MustForest(sh.trees, sh.hashes), newRefForest(sh.trees, sh.hashes)
	draw := func() []uint32 {
		sig := make([]uint32, f.MinSignatureLen())
		for i := range sig {
			sig[i] = uint32(int(arg()) % sh.alphabet)
		}
		return sig
	}
	if sh.pool > 0 {
		rng := rand.New(rand.NewSource(int64(sh.pool)))
		pool := make([][]uint32, sh.pool)
		for i := range pool {
			pool[i] = randomSig(rng, f.MinSignatureLen(), sh.alphabet)
		}
		draw = func() []uint32 { return pool[int(arg())%len(pool)] }
	}
	pick := func(ids []int32) int { return int(arg()) % len(ids) }
	var sigs [][]uint32 // by id
	var live, gone []int32
	for id := 0; id < initial; id++ {
		sigs = append(sigs, draw())
		if !build {
			if err := f.Add(int32(id), sigs[id]); err != nil {
				t.Fatal(err)
			}
		}
		ref.add(int32(id), sigs[id])
		live = append(live, int32(id))
	}
	if build {
		if err := f.Build(slices.Clone(live), SigKeys(func(id int32) []uint32 { return sigs[id] })); err != nil {
			t.Fatal(err)
		}
	} else {
		f.Index()
	}
	ref.index()
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
// against the single-array reference over random histories, on a base
// from Add and Index (seed 1) or from Build (seed 2): phases that
// mostly insert and phases that mostly delete, so the fold threshold is
// crossed by inserts and by deletes, over layouts from 1×1 (every key
// equal to many) to 8×32, and bases both under and over foldMin*8
// entries. The 8×32 cases are shaped like I_N and I_F: hundreds of items
// over fewer than 20 distinct signatures, so every insert copies a known
// signature and nearly every write lands on a key the tree already
// holds.
func TestForestDeltaMatchesReference(t *testing.T) {
	cases := []struct {
		shape
		initial, steps int
	}{
		{shape{1, 1, 3, 0}, 20, 400},
		{shape{2, 3, 3, 0}, 60, 500},
		{shape{4, 8, 4, 0}, 700, 600},
		{shape{8, 32, 256, 19}, 200, 310}, // I_N: distinct names
		{shape{8, 32, 4, 6}, 150, 310},    // I_F: few formats, long shared prefixes
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
			seen := runDeltaHistory(t, c.shape, c.initial, seed == 2, op, arg)
			if seen.byInsert == 0 || seen.byDelete == 0 {
				t.Errorf("%dx%d seed %d: folds by insert %d, by delete %d; the history must cross the threshold both ways",
					c.trees, c.hashes, seed, seen.byInsert, seen.byDelete)
			}
		}
	}
}

// fuzzShape reads a history's shape from its layout byte: below 0x80 a
// small layout over a 3-value alphabet; from 0x80 on the I_N / I_F
// shape, 8×32 over a pool of 1 to 19 signatures (the low six bits) drawn
// from a 3- or, with bit 6 set, a 256-value alphabet, with the initial
// item count scaled to the hundreds. The initial byte's top bit puts
// the initial items in through Build.
func fuzzShape(layout, initial byte) (sh shape, n int, build bool) {
	build = initial&0x80 != 0
	if layout < 0x80 {
		return shape{1 + int(layout%3), 1 + int(layout/3%4), 3, 0}, int(initial % 100), build
	}
	alphabet := 3
	if layout&0x40 != 0 {
		alphabet = 256
	}
	return shape{8, 32, alphabet, 1 + int(layout&0x3f)%19}, 4 * int(initial%100), build
}

// FuzzForestDelta is the same comparison over histories the fuzzer
// writes: every byte an op or an argument.
func FuzzForestDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 200, 600} {
		seed := make([]byte, n)
		rng.Read(seed)
		seed[0] &= 0x7f
		f.Add(seed)
	}
	// The I_N and I_F shapes: 300 items over 19 and over 6 signatures,
	// through Add and Index and through Build.
	for _, layout := range []byte{0xC0 | 18, 0x80 | 5} {
		for _, initial := range []byte{75, 0x80 | 75} {
			seed := make([]byte, 2+300+400)
			rng.Read(seed)
			seed[0], seed[1] = layout, initial
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sh, initial, build := fuzzShape(data[0], data[1])
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
		runDeltaHistory(t, sh, initial, build, op, arg)
	})
}
