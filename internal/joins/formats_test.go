package joins_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/datagen"
	"d3l/internal/joins"
	"d3l/internal/persist"
)

// TestJoinAnswersAcrossFormats: an engine saved with its SA-join graph as
// a version 5 file, and as the version 4 file a build before it wrote,
// loads from either into a replica that holds the graph and answers
// every WithJoins query exactly as the engine did.
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

	var v5 bytes.Buffer
	if err := d3l.Save(engine, &v5); err != nil {
		t.Fatal(err)
	}
	built, err := core.BuildEngine(lake(), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v4 := asVersion4(t, v5.Bytes(), joins.LegacyGraphSection(built))
	for _, file := range []struct {
		what string
		data []byte
	}{{"version 5", v5.Bytes()}, {"version 4", v4}} {
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

// asVersion4 rewrites a version 5 snapshot as a version 4 one: the same
// sections under a version 4 header, with the graph section's payload
// replaced by graph, resealed.
func asVersion4(t *testing.T, data, graph []byte) []byte {
	t.Helper()
	const headerLen, sectionOverhead = 8 + 4, 4 + 8
	out := binary.LittleEndian.AppendUint32(bytes.Clone(data[:headerLen-4]), 4)
	found := false
	for off := headerLen; off < len(data)-4; {
		id := binary.LittleEndian.Uint32(data[off:])
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		payload := data[off+sectionOverhead : off+sectionOverhead+n]
		if id == persist.SecJoinGraph {
			payload, found = graph, true
		}
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		off += sectionOverhead + n
	}
	if !found {
		t.Fatal("the snapshot holds no graph section")
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}
