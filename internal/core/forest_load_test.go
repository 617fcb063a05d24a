package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"d3l/internal/lsh"
	"d3l/internal/persist"
	"d3l/internal/table"
)

// oneArray is a forest in the form format versions 2 and 3 stored it in
// SecForests: per tree one sorted array, an h-byte key per entry beside
// the entry's id.
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
				sig := forestSigs(&e.profiles[attrID], &evals)[slot]
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

// encodeOneArrays is a version 3 SecForests payload.
func encodeOneArrays(forests []oneArray) []byte {
	var b []byte
	for _, f := range forests {
		b = binary.LittleEndian.AppendUint32(b, uint32(f.trees))
		b = binary.LittleEndian.AppendUint32(b, uint32(f.h))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.count))
		if f.indexed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for t := range f.trees {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(f.keys[t])))
			b = append(b, f.keys[t]...)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(f.ids[t])))
			for _, id := range f.ids[t] {
				b = binary.LittleEndian.AppendUint32(b, uint32(id))
			}
		}
	}
	return b
}

// decodeOneArrays reads the four forests of a version 2 or 3 SecForests
// payload, which an honest writer laid down.
func decodeOneArrays(t testing.TB, p []byte) []oneArray {
	t.Helper()
	u32 := func() int { v := binary.LittleEndian.Uint32(p); p = p[4:]; return int(v) }
	var out []oneArray
	for range numForestSlots {
		f := oneArray{trees: u32(), h: u32()}
		f.count = int(binary.LittleEndian.Uint64(p))
		f.indexed, p = p[8] == 1, p[9:]
		for range f.trees {
			n := u32()
			f.keys, p = append(f.keys, p[:n]), p[n:]
			ids := make([]int32, u32())
			for i := range ids {
				ids[i] = int32(u32())
			}
			f.ids = append(f.ids, ids)
		}
		out = append(out, f)
	}
	if len(p) != 0 {
		t.Fatalf("%d bytes after the four forests", len(p))
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
			for slot, sig := range forestSigs(&e.profiles[attrID], &evals) {
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

// asVersion3 turns a version 5 snapshot into a version 3 file, whose
// other sections are laid out alike: the same sections plus a SecForests
// holding forests, resealed.
func asVersion3(t testing.TB, v5 []byte, forests []oneArray) []byte {
	t.Helper()
	body := withVersion(v5, 3)
	body = body[:len(body)-4]
	body = binary.LittleEndian.AppendUint32(body, persist.SecForests)
	payload := encodeOneArrays(forests)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(payload)))
	return reseal(append(append(body, payload...), 0, 0, 0, 0))
}

// forgedForests is the version 3 forests of v1FixtureEngine, honest and
// forged four ways a checksum cannot catch: ids reversed in every tree,
// so each attribute sits under another's key; a tombstoned attribute
// listed first in every tree; I_N flagged un-indexed; and every forest
// emptied.
func forgedForests(t testing.TB, e *Engine) []struct {
	what    string
	forests []oneArray
} {
	t.Helper()
	var dead int32 = -1
	for tid, alive := range e.alive {
		if !alive && len(e.byTable[tid]) > 0 {
			dead = int32(e.byTable[tid][0])
		}
	}
	if dead < 0 {
		t.Fatal("the fixture engine has no tombstoned attribute")
	}
	edit := func(fn func(slot int, f *oneArray)) []oneArray {
		forests := oneArrayForests(e)
		for slot := range forests {
			fn(slot, &forests[slot])
		}
		return forests
	}
	return []struct {
		what    string
		forests []oneArray
	}{
		{"honest forests", oneArrayForests(e)},
		{"ids reversed in every tree", edit(func(_ int, f *oneArray) {
			for _, ids := range f.ids {
				slices.Reverse(ids)
			}
		})},
		{"a tombstoned attribute in every tree", edit(func(_ int, f *oneArray) {
			for _, ids := range f.ids {
				ids[0] = dead
			}
		})},
		{"an un-indexed I_N", edit(func(slot int, f *oneArray) { f.indexed = slot != forestSlotN })},
		{"empty forests", edit(func(_ int, f *oneArray) {
			f.count = 0
			for t := range f.trees {
				f.keys[t], f.ids[t] = nil, nil
			}
		})},
	}
}

// TestLoadRebuildsForestsOfOldFiles: a version 3 snapshot's forests are
// never read, so a checksum-valid file whose forests disagree with its
// profiles loads into exactly the engine its honest twin loads into:
// forests that answer every probe like a rebuild, and rankings of every
// lake table and an outside target identical to the engine the file was
// taken from. The files are the version 5 fixture, a snapshot of that
// engine, relabelled.
func TestLoadRebuildsForestsOfOldFiles(t *testing.T) {
	e := v1FixtureEngine(t)
	data := snapshotBytes(t, e)
	v5, err := os.ReadFile(v5FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	targets := append(figure1Lake(t).Tables(), figure1Target(t))
	for _, c := range forgedForests(t, e) {
		le, err := LoadEngine(bytes.NewReader(asVersion3(t, v5, c.forests)))
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		checkForestsAgree(t, e, le, c.what)
		checkForestsMatchOneArrays(t, le, oneArrayForests(e), c.what)
		for _, target := range targets {
			want, err := topK(e, target, len(targets))
			if err != nil {
				t.Fatal(err)
			}
			got, err := topK(le, target, len(targets))
			if err != nil {
				t.Fatal(err)
			}
			if rankingSignature(want, true) != rankingSignature(got, true) {
				t.Fatalf("%s: target %s ranks differently:\nwant %s\ngot  %s",
					c.what, target.Name, rankingSignature(want, true), rankingSignature(got, true))
			}
		}
		if !bytes.Equal(snapshotBytes(t, le), data) {
			t.Fatalf("%s: the version 3 load re-snapshots to other bytes than the engine it was taken from", c.what)
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
