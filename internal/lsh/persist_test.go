package lsh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"d3l/internal/persist"
)

// decoded is DecodeForest of a forest's snapshot bytes.
func decoded(t *testing.T, data []byte) (*Forest, error) {
	t.Helper()
	r, err := persist.OpenSealed(data)
	if err != nil {
		t.Fatal(err)
	}
	return DecodeForest(r)
}

// TestDecodeForestRoundTrip: a forest with a delta and dead ids encodes
// its merged form, which decodes to a clean forest that answers and
// re-encodes identically and keeps taking writes.
func TestDecodeForestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := MustForest(3, 4)
	sigs := make([][]uint32, 60)
	for i := range sigs {
		sigs[i] = randomSig(rng, f.MinSignatureLen(), 3)
		if i < 40 {
			if err := f.Add(int32(i), sigs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Index()
	for i := 40; i < 60; i++ {
		if err := f.Insert(int32(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int32{3, 17, 45} {
		if ok, err := f.Delete(id, sigs[id]); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
	if f.clean() {
		t.Fatal("the fixture left no delta or dead ids")
	}
	data := encoded(f)
	g, err := decoded(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.clean() || g.count != f.count || g.NumTrees() != 3 || g.HashesPerTree() != 4 {
		t.Fatalf("decoded forest: clean %v, count %d (want %d), layout %dx%d", g.clean(), g.count, f.count, g.NumTrees(), g.HashesPerTree())
	}
	var s DepthScratch
	ref := refFromSnapshot(t, data)
	checkSameAnswers(t, f, ref, sigs[:10], &s, "original")
	checkSameAnswers(t, g, ref, sigs[:10], &s, "decoded")
	// Shape counts tree 0's distinct keys, through the delta and the dead
	// ids on f, off the clean base on g: the reference's distinct keys.
	keys := 0
	for i := 0; i < len(ref.ids[0]); i++ {
		if i == 0 || !bytes.Equal(ref.keys[0][(i-1)*4:i*4], ref.keys[0][i*4:i*4+4]) {
			keys++
		}
	}
	for name, fr := range map[string]*Forest{"original": f, "decoded": g} {
		if entries, k := fr.Shape(); entries != ref.count || k != keys || !fr.Indexed() {
			t.Fatalf("%s: Shape %d/%d, indexed %v; the reference holds %d entries over %d keys", name, entries, k, fr.Indexed(), ref.count, keys)
		}
	}
	if err := g.CheckIDs(60); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckIDs(45); err == nil {
		t.Fatal("CheckIDs accepted delta ids past the limit")
	}
	if err := g.Insert(3, sigs[3]); err != nil {
		t.Fatal(err)
	}
	if ok, err := g.Delete(17, sigs[17]); err != nil || ok {
		t.Fatalf("decoded forest found deleted id 17: ok=%v err=%v", ok, err)
	}
	if _, err := g.Delete(-1, sigs[0]); err == nil {
		t.Fatal("Delete of a negative id accepted")
	}
}

// TestDecodeForestRejectsUnsortedTree: a checksum-valid snapshot whose
// tree is out of key order is corrupt, not a forest that answers wrong;
// an un-indexed forest's trees are unsorted by definition and load.
func TestDecodeForestRejectsUnsortedTree(t *testing.T) {
	f := MustForest(2, 2)
	for id, sig := range [][]uint32{{1, 1, 5, 5}, {2, 2, 6, 6}, {3, 3, 7, 7}} {
		if err := f.Add(int32(id), sig); err != nil {
			t.Fatal(err)
		}
	}
	raw := encoded(f)
	if g, err := decoded(t, raw); err != nil {
		t.Fatalf("un-indexed forest: %v", err)
	} else if entries, keys := g.Shape(); g.Indexed() || entries != 3 || keys != 0 || !bytes.Equal(encoded(g), raw) {
		t.Fatalf("un-indexed forest: indexed %v, Shape %d/%d, re-encodes equal %v", g.Indexed(), entries, keys, bytes.Equal(encoded(g), raw))
	}
	f.Index()
	data := encoded(f)
	if _, err := decoded(t, data); err != nil {
		t.Fatal(err)
	}
	// Tree 1's keys follow the layout, the count, the flag, tree 0's two
	// arrays and tree 1's key count: swap its first and last keys and
	// reseal.
	off := 4 + 4 + 8 + 1 + (4 + 6) + (4 + 12) + 4
	keys := data[off : off+6]
	if !bytes.Equal(keys, []byte{5, 5, 6, 6, 7, 7}) {
		t.Fatalf("offset %d holds %v, not tree 1's keys", off, keys)
	}
	keys[0], keys[1], keys[4], keys[5] = 7, 7, 5, 5
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], crc32.MakeTable(crc32.Castagnoli)))
	if _, err := decoded(t, data); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("unsorted tree: err = %v, want ErrCorrupt", err)
	}
}
