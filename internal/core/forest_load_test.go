package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"d3l/internal/lsh"
	"d3l/internal/table"
)

// oneArray is a forest in the form snapshot format versions 2 and 3
// stored it: per tree one sorted array, an h-byte key per entry beside
// the entry's id. It is the reference the rebuilt forests are held to.
type oneArray struct {
	trees, h, count int
	indexed         bool
	keys            [][]byte
	ids             [][]int32
}

// oneArrayForests is the four forests an engine's live attributes index,
// in slot order, as a version 3 writer built them: entries added in
// (table id, attribute id) order, each tree sorted by key with
// sort.Slice over that order.
func oneArrayForests(e *Engine) []oneArray {
	var out []oneArray
	for slot := range numForestSlots {
		trees, h := e.opts.ForestTrees, e.opts.ForestHashes
		if slot == forestSlotE {
			trees, h = embedForestLayout(e.opts.EmbedBits)
		}
		fa := oneArray{trees: trees, h: h, indexed: true, keys: make([][]byte, trees), ids: make([][]int32, trees)}
		var evals []uint32
		for tid, attrs := range e.byTable {
			if !e.alive[tid] {
				continue
			}
			for _, attrID := range attrs {
				p := e.profileOf(attrID)
				sig := forestSigs(&p, &evals)[slot]
				if sig == nil {
					continue
				}
				fa.count++
				for t := range trees {
					for _, v := range sig[t*h : t*h+h] {
						fa.keys[t] = append(fa.keys[t], byte(v))
					}
					fa.ids[t] = append(fa.ids[t], int32(attrID))
				}
			}
		}
		for t := range trees {
			keys, ids := fa.keys[t], fa.ids[t]
			order := make([]int, len(ids))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(x, y int) bool {
				return bytes.Compare(keys[order[x]*h:order[x]*h+h], keys[order[y]*h:order[y]*h+h]) < 0
			})
			sk, si := make([]byte, 0, len(keys)), make([]int32, 0, len(ids))
			for _, i := range order {
				sk, si = append(sk, keys[i*h:i*h+h]...), append(si, ids[i])
			}
			fa.keys[t], fa.ids[t] = sk, si
		}
		out = append(out, fa)
	}
	return out
}

// region is CollectMinDepth over a one-array forest: every tree's
// entries whose key agrees with sig's on depth leading bytes, sorted.
func (f *oneArray) region(sig []uint32, depth int) []int32 {
	var out []int32
	for t := range f.trees {
		for i, id := range f.ids[t] {
			match := true
			for k := range depth {
				match = match && f.keys[t][i*f.h+k] == byte(sig[t*f.h+k])
			}
			if match {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// distinctKeys counts tree 0's distinct keys: Shape's second value.
func (f *oneArray) distinctKeys() int {
	n := 0
	for i := range f.ids[0] {
		if i == 0 || !bytes.Equal(f.keys[0][(i-1)*f.h:i*f.h], f.keys[0][i*f.h:(i+1)*f.h]) {
			n++
		}
	}
	return n
}

// liveForestSigs lists, per forest slot, the signature of every live
// attribute that slot indexes: the probes that reach every key.
func liveForestSigs(e *Engine) [numForestSlots][][]uint32 {
	var out [numForestSlots][][]uint32
	for tid, attrs := range e.byTable {
		if !e.alive[tid] {
			continue
		}
		for _, attrID := range attrs {
			var evals []uint32
			p := e.profileOf(attrID)
			for slot, sig := range forestSigs(&p, &evals) {
				if sig != nil {
					out[slot] = append(out[slot], sig)
				}
			}
		}
	}
	return out
}

// checkForestsMatchOneArrays fails unless e's forests hold the entries of
// the one-array forests, as every read sees them: CollectMinDepth as a
// multiset at every depth for every live signature, and Shape.
func checkForestsMatchOneArrays(t *testing.T, e *Engine, want []oneArray, label string) {
	t.Helper()
	entries, keys := e.ForestShapes()
	for slot, sigs := range liveForestSigs(e) {
		f, w := e.forests[slot], &want[slot]
		if f.MinSignatureLen() != w.trees*w.h || entries[slot] != w.count || keys[slot] != w.distinctKeys() {
			t.Fatalf("%s: forest I_%v layout %d values, Shape %d/%d; the one-array forest %dx%d, %d/%d",
				label, slotEvidence[slot], f.MinSignatureLen(), entries[slot], keys[slot], w.trees, w.h, w.count, w.distinctKeys())
		}
		for _, sig := range sigs {
			for d := 1; d <= w.h; d++ {
				got, err := f.CollectMinDepth(sig, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Sort(got); !slices.Equal(got, w.region(sig, d)) {
					t.Fatalf("%s: forest I_%v depth %d: CollectMinDepth %v, the one-array forest %v",
						label, slotEvidence[slot], d, got, w.region(sig, d))
				}
			}
		}
	}
}

// checkForestsAgree fails unless a's and b's forests answer every probe of
// a live signature alike: Probe's set and stop depth at three budgets,
// DepthCounts, CollectMinDepth as a multiset at every depth, and Shape.
func checkForestsAgree(t *testing.T, a, b *Engine, label string) {
	t.Helper()
	ea, ka := a.ForestShapes()
	if eb, kb := b.ForestShapes(); ea != eb || ka != kb {
		t.Fatalf("%s: ForestShapes %v/%v and %v/%v", label, ea, ka, eb, kb)
	}
	var sa, sb lsh.DepthScratch
	for slot, sigs := range liveForestSigs(a) {
		fa, fb := a.forests[slot], b.forests[slot]
		for i, sig := range sigs {
			for _, budget := range []int{1, 10, len(sigs) + 1} {
				pa, da, err := fa.Probe(sig, budget, nil, &sa)
				if err != nil {
					t.Fatal(err)
				}
				pb, db, err := fb.Probe(sig, budget, nil, &sb)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(pa)
				slices.Sort(pb)
				if da != db || !slices.Equal(pa, pb) {
					t.Fatalf("%s: I_%v signature %d budget %d: Probe %v at depth %d and %v at depth %d",
						label, slotEvidence[slot], i, budget, pa, da, pb, db)
				}
			}
			ca, _ := fa.DepthCounts(sig, &sa)
			cb, _ := fb.DepthCounts(sig, &sb)
			if !slices.Equal(ca, cb) {
				t.Fatalf("%s: I_%v signature %d: DepthCounts %v and %v", label, slotEvidence[slot], i, ca, cb)
			}
			for d := 1; d <= len(ca); d++ {
				ra, _ := fa.CollectMinDepth(sig, d, nil)
				rb, _ := fb.CollectMinDepth(sig, d, nil)
				slices.Sort(ra)
				slices.Sort(rb)
				if !slices.Equal(ra, rb) {
					t.Fatalf("%s: I_%v signature %d depth %d: CollectMinDepth %v and %v", label, slotEvidence[slot], i, d, ra, rb)
				}
			}
		}
	}
}

// TestLoadedChurnedEngineAnswersIdentically: an engine after a seeded
// history of adds, updates and removes, whose forests hold deltas and
// dead ids, loads into an engine that answers Query, QueryBatch and a
// shard's probe and gather partials exactly like it, and whose rebuilt
// forests answer every probe like the original's, before and after the
// original is compacted.
func TestLoadedChurnedEngineAnswersIdentically(t *testing.T) {
	e := churnedEngine(t)
	le := loadedEngine(t, e)
	ctx := context.Background()
	var targets []*table.Table
	for _, name := range e.TableNames() {
		targets = append(targets, e.Lake().ByName(name))
	}
	for _, target := range targets {
		want, err := topK(e, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := topK(le, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		if rankingSignature(want, true) != rankingSignature(got, true) {
			t.Fatalf("target %s: Query on the loaded engine differs:\nwant %s\ngot  %s",
				target.Name, rankingSignature(want, true), rankingSignature(got, true))
		}
	}
	want, err := batchSearch(ctx, e, targets, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batchSearch(ctx, le, targets, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		if rankingSignature(want[i].Ranked, true) != rankingSignature(got[i].Ranked, true) {
			t.Fatalf("target %s: QueryBatch on the loaded engine differs", targets[i].Name)
		}
	}
	spec := QuerySpec{K: 10}
	for _, target := range targets[:6] {
		var wires [2][]byte
		for i, eng := range []*Engine{e, le} {
			probe, err := eng.ShardProbeSpec(ctx, target, spec)
			if err != nil {
				t.Fatal(err)
			}
			depths, err := MergeProbeDepths([]*ShardProbe{probe})
			if err != nil {
				t.Fatal(err)
			}
			partial, err := eng.ShardGatherSpec(ctx, target, spec, depths)
			if err != nil {
				t.Fatal(err)
			}
			wires[i] = append(fmt.Appendf(nil, "%v|", *probe), EncodeShardPartial(partial)...)
		}
		if !bytes.Equal(wires[0], wires[1]) {
			t.Fatalf("target %s: the loaded engine's shard probe or partial differs", target.Name)
		}
	}
	checkForestsAgree(t, e, le, "churned vs loaded")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	checkForestsAgree(t, e, le, "compacted vs loaded")
	checkForestsMatchOneArrays(t, le, oneArrayForests(e), "loaded")
}
