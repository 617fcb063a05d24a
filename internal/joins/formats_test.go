package joins_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/datagen"
	"d3l/internal/joins"
	"d3l/internal/persist"
)

// TestJoinAnswersAcrossFormats: an engine saved with its SA-join graph as
// a version 6 file, and as the version 5 and 4 files builds before it
// wrote, loads from any of them into a replica that holds the graph and
// answers every WithJoins query exactly as the engine did.
func TestJoinAnswersAcrossFormats(t *testing.T) {
	lake := func() *d3l.Lake {
		cfg := datagen.DefaultSyntheticConfig()
		cfg.Seed = 19
		cfg.BaseTables, cfg.DerivedTables = 4, 36
		cfg.MinRows, cfg.MaxRows = 12, 24
		lake, _, err := datagen.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return lake
	}
	engine, err := d3l.New(lake(), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	targets := lake().Tables()
	answers := func(e *d3l.Engine) []*d3l.Answer {
		out := make([]*d3l.Answer, len(targets))
		for i, target := range targets {
			a, err := e.Query(context.Background(), target, d3l.WithK(5), d3l.WithJoins())
			if err != nil {
				t.Fatal(err)
			}
			a.Stats.Elapsed = 0
			out[i] = a
		}
		return out
	}
	want := answers(engine) // builds the graph
	paths := 0
	for _, a := range want {
		for _, j := range a.Joins {
			paths += len(j.Paths)
		}
	}
	edges, ok := engine.HeldJoinGraphEdges()
	if !ok || edges == 0 || paths == 0 {
		t.Fatalf("fixture: %d join edges and %d join paths, want some of each", edges, paths)
	}

	var v6 bytes.Buffer
	if err := d3l.Save(engine, &v6); err != nil {
		t.Fatal(err)
	}
	built, err := core.BuildEngine(lake(), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v5 := asFixedWidth(t, v6.Bytes(), 5, nil)
	v4 := asFixedWidth(t, v6.Bytes(), 4, joins.LegacyGraphSection(built))
	for _, file := range []struct {
		what string
		data []byte
	}{{"version 6", v6.Bytes()}, {"version 5", v5}, {"version 4", v4}} {
		loaded, err := d3l.Load(bytes.NewReader(file.data))
		if err != nil {
			t.Fatalf("%s: %v", file.what, err)
		}
		if got, ok := loaded.HeldJoinGraphEdges(); !ok || got != edges {
			t.Fatalf("%s: the loaded engine holds %d join edges (graph held: %v), want %d", file.what, got, ok, edges)
		}
		if got := answers(loaded); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the loaded engine answers join queries differently", file.what)
		}
	}
}

// asFixedWidth rewrites a version 6 snapshot in the layout of version 5
// or 4, whose sections hold every number at a fixed width: the lake
// metadata, signature table and profiles re-encoded field by field, and
// the graph section's payload replaced by graph, or, when graph is nil,
// its counts and ids re-encoded as version 5's uint32 offsets and ids.
func asFixedWidth(t *testing.T, data []byte, version uint32, graph []byte) []byte {
	t.Helper()
	const headerLen, sectionOverhead = 8 + 4, 4 + 8
	out := binary.LittleEndian.AppendUint32(bytes.Clone(data[:headerLen-4]), version)
	for off := headerLen; off < len(data)-4; {
		id := binary.LittleEndian.Uint32(data[off:])
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		payload := data[off+sectionOverhead : off+sectionOverhead+n]
		var b persist.Buffer
		r := readerOf(t, payload)
		switch id {
		case persist.SecLake:
			n := r.Uvarint()
			b.U32(uint32(n))
			for range n {
				live := r.Bool()
				b.Bool(live)
				b.Str(r.VStr())
				if live {
					cols := r.Uvarint()
					b.U32(uint32(cols))
					for range cols {
						b.Str(r.VStr())
						b.U8(r.U8())
					}
				}
			}
		case persist.SecSigs:
			n := r.Uvarint()
			b.U32(uint32(n))
			for range n {
				slots := r.VU32s(nil)
				b.U32(uint32(len(slots)))
				for _, v := range slots {
					b.U32(v)
				}
			}
		case persist.SecAttrs:
			n := r.Uvarint()
			b.U32(uint32(n))
			for range n {
				b.I64(int64(r.Uvarint())) // table id
				b.I64(int64(r.Uvarint())) // column
				b.Str(r.VStr())
				b.Bool(r.Bool())
				b.Bool(r.Bool())
				b.U32(uint32(r.Uvarint()))
				b.U32(uint32(r.Uvarint()))
				b.I64(int64(r.Uvarint())) // TSize
				b.U32(uint32(r.Uvarint()))
				b.U64s(r.VU64s())
				b.Bool(r.Bool())
				b.F64s(readExtent(t, r))
			}
			tables := r.Uvarint()
			b.U32(uint32(tables))
			for range tables {
				attrs := r.Uvarint()
				b.U32(uint32(attrs))
				for range attrs {
					b.I64(int64(r.Uvarint()))
				}
				b.I64(r.Varint())
				b.Bool(r.Bool())
			}
		case persist.SecJoinGraph:
			if graph != nil {
				payload, r = graph, nil
				break
			}
			tables := r.Uvarint()
			off := []uint32{0}
			for t := range tables {
				off = append(off, off[t]+uint32(r.Uvarint()))
			}
			b.U32(uint32(len(off)))
			for _, o := range off {
				b.U32(o)
			}
			b.U32(off[tables])
			for range off[tables] {
				b.U32(uint32(r.Uvarint()))
			}
		default:
			r = nil
		}
		if r != nil {
			if err := r.Err(); err != nil || r.Remaining() != 0 {
				t.Fatalf("section %d: %v, %d bytes left", id, err, r.Remaining())
			}
			sealed := b.Sealed()
			payload = sealed[:len(sealed)-4]
		}
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		off += sectionOverhead + n
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// readerOf returns a Reader over exactly payload.
func readerOf(t *testing.T, payload []byte) *persist.Reader {
	t.Helper()
	var b persist.Buffer
	for _, c := range payload {
		b.U8(c)
	}
	r, err := persist.OpenSealed(b.Sealed())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// readExtent reads a version 6 numeric extent: a count, then for a
// non-empty extent a decimal scale and the scaled values as a Varint and
// Uvarint steps, or the raw marker 0xff and float64s.
func readExtent(t *testing.T, r *persist.Reader) []float64 {
	t.Helper()
	vs := make([]float64, r.Uvarint())
	if len(vs) == 0 {
		return nil
	}
	d := r.U8()
	if d == 0xff {
		for i := range vs {
			vs[i] = r.F64()
		}
		return vs
	}
	k := r.Varint()
	for i := range vs {
		if i > 0 {
			k += int64(r.Uvarint())
		}
		vs[i] = float64(k) / math.Pow10(int(d))
	}
	return vs
}
