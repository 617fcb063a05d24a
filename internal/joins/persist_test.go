package joins

import (
	"bytes"
	"errors"
	"testing"

	"d3l/internal/persist"
)

// readerOver returns a Reader over exactly data, as a snapshot section
// would hand DecodeGraph.
func readerOver(t testing.TB, data []byte) *persist.Reader {
	t.Helper()
	var b persist.Buffer
	for _, c := range data {
		b.U8(c)
	}
	r, err := persist.OpenSealed(b.Sealed())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func encodeGraph(g *Graph) []byte {
	var b persist.Buffer
	g.Encode(&b)
	return payload(&b)
}

// payload is what b holds, without the trailer Sealed appends.
func payload(b *persist.Buffer) []byte {
	sealed := b.Sealed()
	return sealed[:len(sealed)-4]
}

// FuzzDecodeGraph holds the snapshot's SA-join graph decoder to "typed
// error or valid graph" on hostile bytes: it fails with an error wrapping
// persist.ErrCorrupt (or ErrTruncated, for a payload that ends early),
// or returns a graph whose every endpoint is a table and attribute of
// the engine and that re-encodes and decodes to itself.
func FuzzDecodeGraph(f *testing.F) {
	e := buildEngine(f)
	g := buildGraph(f, e)
	if g.Edges() == 0 {
		f.Fatal("fixture graph has no edges")
	}
	valid := encodeGraph(g)
	f.Add(valid)
	// Truncations: inside the header, the first list and the last edge.
	for _, n := range []int{0, 7, 12, 20, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:n]...))
	}
	// Bit flips: the edge count, the list count, the first table id, the
	// first list's length, an edge endpoint and an overlap.
	for _, at := range []int{0, 8, 15, 20, 24 + 8, len(valid) - 3} {
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0x80
		f.Add(flipped)
	}
	// Table 0's adjacency list, twice.
	var dup persist.Buffer
	dup.U64(0)
	dup.U32(2)
	for range 2 {
		dup.I64(0)
		dup.U32(0)
	}
	f.Add(payload(&dup))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeGraph(readerOver(t, data), e)
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) && !errors.Is(err, persist.ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		numTables, numAttrs := e.Lake().Len(), e.NumAttributes()
		for tid, edges := range got.adj {
			if tid < 0 || tid >= numTables {
				t.Fatalf("adjacency list of table %d of %d", tid, numTables)
			}
			for _, ed := range edges {
				if ed.From < 0 || ed.From >= numTables || ed.To < 0 || ed.To >= numTables ||
					ed.FromAttr < 0 || ed.FromAttr >= numAttrs || ed.ToAttr < 0 || ed.ToAttr >= numAttrs {
					t.Fatalf("edge %+v out of range (%d tables, %d attributes)", ed, numTables, numAttrs)
				}
			}
		}
		enc := encodeGraph(got)
		again, err := DecodeGraph(readerOver(t, enc), e)
		if err != nil {
			t.Fatalf("re-decoding a decoded graph: %v", err)
		}
		if again.Edges() != got.Edges() || !bytes.Equal(encodeGraph(again), enc) {
			t.Fatal("the decoded graph does not round-trip through Encode and DecodeGraph")
		}
	})
}
