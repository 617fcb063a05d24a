package joins

import (
	"bytes"
	"errors"
	"slices"
	"strings"
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

// encodeUvarints lays values down as varints, whatever they hold: in the
// graph section's layout, the table count, the neighbour counts, then
// the ids.
func encodeUvarints(vs ...uint64) []byte {
	var b persist.Buffer
	for _, v := range vs {
		b.Uvarint(v)
	}
	return payload(&b)
}

// payload is what b holds, without the trailer Sealed appends.
func payload(b *persist.Buffer) []byte {
	sealed := b.Sealed()
	return sealed[:len(sealed)-4]
}

// graphSection is a graph section DecodeGraph must refuse, and why.
type graphSection struct {
	what string
	data []byte
	why  string
}

// forgedGraphSections are graph sections over buildEngine's four tables
// that each break one rule DecodeGraph checks and pass every other.
func forgedGraphSections() []graphSection {
	return []graphSection{
		{"neighbour counts for three tables", encodeUvarints(3, 0, 0, 0), "neighbour counts for"},
		{"a neighbour count beyond the ids", encodeUvarints(4, 100, 1, 0, 1, 3, 0), "neighbour counts reach"},
		{"an odd id total", encodeUvarints(4, 1, 0, 0, 0, 3), "odd"},
		{"a neighbour id past the tables", encodeUvarints(4, 1, 0, 0, 1, 3, 4), "neighbour id"},
		{"an eleven-byte table count", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, "more than 64 bits"},
	}
}

// TestDecodeGraphRefusesForgedSections: each forgedGraphSections input is
// refused as corrupt, by the check meant for it.
func TestDecodeGraphRefusesForgedSections(t *testing.T) {
	e := buildEngine(t)
	for _, s := range forgedGraphSections() {
		_, err := DecodeGraph(readerOver(t, s.data), e)
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), s.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt for %q", s.what, err, s.why)
		}
	}
}

// FuzzDecodeGraph holds the snapshot's SA-join graph decoder to "typed
// error or valid graph" on hostile bytes. It is seeded with a built
// graph's section, which must decode to that graph, every truncation of
// it, every single-bit flip of it, and the forgedGraphSections. A decode
// fails with an error wrapping persist.ErrCorrupt (or ErrTruncated, for
// a payload that ends early), or returns a graph with one offset per
// table plus one, never decreasing and ending at an even id count, every
// id a table of the engine, that re-encodes and decodes to itself.
func FuzzDecodeGraph(f *testing.F) {
	e := buildEngine(f)
	g := buildGraph(f, e)
	if g.Edges() == 0 {
		f.Fatal("fixture graph has no edges")
	}
	valid := encodeGraph(g)
	if got, err := DecodeGraph(readerOver(f, valid), e); err != nil || !slices.Equal(got.off, g.off) || !slices.Equal(got.to, g.to) {
		f.Fatalf("the built graph does not decode to itself (err %v)", err)
	}
	f.Add(valid)
	for n := range valid {
		f.Add(valid[:n])
	}
	for bit := range 8 * len(valid) {
		flipped := slices.Clone(valid)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	for _, s := range forgedGraphSections() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeGraph(readerOver(t, data), e)
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) && !errors.Is(err, persist.ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		numTables := e.Lake().Len()
		if len(got.off) != numTables+1 || got.off[0] != 0 || int(got.off[numTables]) != len(got.to) || len(got.to)%2 != 0 {
			t.Fatalf("offsets %v over %d ids for %d tables", got.off, len(got.to), numTables)
		}
		for tid := range numTables {
			if got.off[tid] > got.off[tid+1] {
				t.Fatalf("offsets %v decrease", got.off)
			}
			for _, nb := range got.Neighbours(tid) {
				if nb < 0 || int(nb) >= numTables {
					t.Fatalf("table %d's neighbour %d of %d tables", tid, nb, numTables)
				}
			}
		}
		enc := encodeGraph(got)
		again, err := DecodeGraph(readerOver(t, enc), e)
		if err != nil {
			t.Fatalf("re-decoding a decoded graph: %v", err)
		}
		if !slices.Equal(again.off, got.off) || !slices.Equal(again.to, got.to) || !bytes.Equal(encodeGraph(again), enc) {
			t.Fatal("the decoded graph does not round-trip through Encode and DecodeGraph")
		}
	})
}
