package joins

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"d3l/internal/core"
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

// encodeLegacy is g's graph section as snapshot versions 2–4 wrote it.
func encodeLegacy(g *refGraph) []byte {
	var b persist.Buffer
	encodeV4Graph(&b, g)
	return payload(&b)
}

// encodeCSR lays offsets and ids down in the version 5 layout, whatever
// they hold.
func encodeCSR(off, to []uint32) []byte {
	var b persist.Buffer
	for _, run := range [][]uint32{off, to} {
		b.U32(uint32(len(run)))
		for _, v := range run {
			b.U32(v)
		}
	}
	return payload(&b)
}

// encodeV5 is g's graph section as snapshot version 5 wrote it.
func encodeV5(g *Graph) []byte {
	var off, to []uint32
	for _, o := range g.off {
		off = append(off, uint32(o))
	}
	for _, t := range g.to {
		to = append(to, uint32(t))
	}
	return encodeCSR(off, to)
}

// encodeUvarints lays values down as varints, whatever they hold: in the
// version 6 layout, the table count, the neighbour counts, then the ids.
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

// forged edits a copy of g's adjacency lists.
func forged(g *refGraph, edit func(g *refGraph)) *refGraph {
	out := &refGraph{adj: maps.Clone(g.adj), edges: g.edges}
	for tid, edges := range out.adj {
		out.adj[tid] = slices.Clone(edges)
	}
	edit(out)
	return out
}

// graphSection is a graph section of a snapshot version, and what a
// decode of it must refuse it for ("" when it must load).
type graphSection struct {
	what    string
	version uint32
	data    []byte
	why     string
}

// forgedGraphSections are graph sections over buildEngine's four tables
// that each break one rule DecodeGraph checks, in either layout, and
// that pass every other.
func forgedGraphSections(t testing.TB, e *core.Engine) []graphSection {
	t.Helper()
	ref := buildGraphReference(e)
	if len(ref.adj) < 2 {
		t.Fatalf("fixture graph holds %d adjacency lists, want two or more", len(ref.adj))
	}
	tids := slices.Sorted(maps.Keys(ref.adj))
	var dup persist.Buffer
	dup.U64(0)
	dup.U32(2)
	for range 2 {
		dup.I64(0)
		dup.U32(0)
	}
	return []graphSection{
		{"a legacy edge count one more than half the entries", 4,
			encodeLegacy(forged(ref, func(g *refGraph) { g.edges++ })), "adjacency entries"},
		{"a legacy entry in another table's list", 4,
			encodeLegacy(forged(ref, func(g *refGraph) { g.adj[tids[0]][0].From = tids[1] })), "in table"},
		{"table 0's legacy list, twice", 4, payload(&dup), "duplicate"},
		{"five offsets that do not start at 0", 5, encodeCSR([]uint32{1, 1, 1, 1, 1}, []uint32{}), "offset 0"},
		{"non-monotone offsets", 5, encodeCSR([]uint32{0, 2, 1, 2, 2}, []uint32{1, 0}), "offset 2"},
		{"a final offset that disagrees with the id count", 5, encodeCSR([]uint32{0, 1, 1, 1, 1}, []uint32{3, 0}), "offsets end"},
		{"an odd entry total", 5, encodeCSR([]uint32{0, 1, 1, 1, 1}, []uint32{3}), "offsets end"},
		{"offsets for three tables", 5, encodeCSR([]uint32{0, 0, 0, 0}, []uint32{}), "offsets for"},
		{"a neighbour id past the tables", 5, encodeCSR([]uint32{0, 1, 1, 1, 2}, []uint32{3, 4}), "neighbour id"},
		{"neighbour counts for three tables", 6, encodeUvarints(3, 0, 0, 0), "neighbour counts for"},
		{"a neighbour count beyond the ids", 6, encodeUvarints(4, 100, 1, 0, 1, 3, 0), "neighbour counts reach"},
		{"an odd id total", 6, encodeUvarints(4, 1, 0, 0, 0, 3), "odd"},
		{"a varint neighbour id past the tables", 6, encodeUvarints(4, 1, 0, 0, 1, 3, 4), "neighbour id"},
		{"an eleven-byte table count", 6, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, "more than 64 bits"},
	}
}

// TestDecodeGraphRefusesForgedSections: each forgedGraphSections input is
// refused as corrupt, by the check meant for it.
func TestDecodeGraphRefusesForgedSections(t *testing.T) {
	e := buildEngine(t)
	for _, s := range forgedGraphSections(t, e) {
		_, err := DecodeGraph(readerOver(t, s.data), s.version, e)
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), s.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt for %q", s.what, err, s.why)
		}
	}
}

// TestDecodeGraphReadsEveryLayout: the graph section a version 2–4 build
// wrote loads as the neighbour ids of the graph a build gives today, in
// order, and so do the version 5 and 6 sections.
func TestDecodeGraphReadsEveryLayout(t *testing.T) {
	e := buildEngine(t)
	g := buildGraph(t, e)
	legacy := encodeLegacy(buildGraphReference(e))
	for _, s := range []graphSection{
		{what: "version 2", version: 2, data: legacy},
		{what: "version 4", version: 4, data: legacy},
		{what: "version 5", version: 5, data: encodeV5(g)},
		{what: "version 6", version: 6, data: encodeGraph(g)},
	} {
		got, err := DecodeGraph(readerOver(t, s.data), s.version, e)
		if err != nil {
			t.Fatalf("%s: %v", s.what, err)
		}
		if !slices.Equal(got.off, g.off) || !slices.Equal(got.to, g.to) {
			t.Fatalf("%s: decoded %v / %v, built %v / %v", s.what, got.off, got.to, g.off, g.to)
		}
	}
}

// FuzzDecodeGraph holds the snapshot's SA-join graph decoder to "typed
// error or valid graph" on hostile bytes, in every layout: the first
// byte is the snapshot version the rest is decoded as (6 and up the
// varint counts and ids, 5 the uint32 offsets and ids, below it the
// full-edge lists). It fails with an error wrapping
// persist.ErrCorrupt (or ErrTruncated, for a payload that ends early),
// or returns a graph with one offset per table plus one, never
// decreasing and ending at an even id count, every id a table of the
// engine, that re-encodes and decodes to itself.
func FuzzDecodeGraph(f *testing.F) {
	e := buildEngine(f)
	g := buildGraph(f, e)
	if g.Edges() == 0 {
		f.Fatal("fixture graph has no edges")
	}
	seed := func(version uint32, data []byte) { f.Add(append([]byte{byte(version)}, data...)) }
	valid := encodeV5(g)
	seed(5, valid)
	// Truncations: inside the offset count, the offsets, the id count and
	// the ids.
	ids := 4 + 4*len(g.off) + 4
	for _, n := range []int{0, 2, 10, ids - 2, ids + 2, len(valid) - 1} {
		seed(5, valid[:n])
	}
	// Bit flips: the offset count, an offset, the id count and an id.
	for _, at := range []int{0, 8, ids - 4, len(valid) - 4} {
		flipped := slices.Clone(valid)
		flipped[at] ^= 0x80
		seed(5, flipped)
	}
	legacy := encodeLegacy(buildGraphReference(e))
	seed(4, legacy)
	// Truncations: inside the header, the first list and the last edge.
	for _, n := range []int{0, 7, 12, 20, len(legacy) / 2, len(legacy) - 1} {
		seed(4, legacy[:n])
	}
	// Bit flips: the edge count, the list count, the first table id, the
	// first list's length, an edge endpoint and an overlap.
	for _, at := range []int{0, 8, 15, 20, 24 + 8, len(legacy) - 3} {
		flipped := slices.Clone(legacy)
		flipped[at] ^= 0x80
		seed(4, flipped)
	}
	for _, s := range forgedGraphSections(f, e) {
		seed(s.version, s.data)
	}
	current := encodeGraph(g)
	seed(6, current)
	// Truncations: inside the counts and the ids; bit flips: the table
	// count, a count and an id.
	counts := len(current) - len(g.to)
	for _, n := range []int{0, counts / 2, counts + 1, len(current) - 1} {
		seed(6, current[:n])
	}
	for _, at := range []int{0, counts / 2, len(current) - 1} {
		flipped := slices.Clone(current)
		flipped[at] ^= 0x80
		seed(6, flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		got, err := DecodeGraph(readerOver(t, data[1:]), uint32(data[0]), e)
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
		again, err := DecodeGraph(readerOver(t, enc), persist.Version, e)
		if err != nil {
			t.Fatalf("re-decoding a decoded graph: %v", err)
		}
		if !slices.Equal(again.off, got.off) || !slices.Equal(again.to, got.to) || !bytes.Equal(encodeGraph(again), enc) {
			t.Fatal("the decoded graph does not round-trip through Encode and DecodeGraph")
		}
	})
}
