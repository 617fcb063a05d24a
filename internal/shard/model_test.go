package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"d3l"
	"d3l/internal/server"
)

// TestModelMutationHistory is the model-based fence of the write path.
// One seeded random history of adds (fresh names, and removed names
// coming back), updates, removes, compactions and save-load round trips
// runs against the monolith — the model — and three sharded
// topologies: a Set at N = 2 and at N = 3, and a Remote over one HTTP
// replica per shard of a two-shard set. After every step each topology
// must answer a fixed probe set exactly as the monolith does, and list
// the same tables and slot counts.
func TestModelMutationHistory(t *testing.T) {
	const steps = 36
	lake := testLake(t, 467, 10)
	rng := rand.New(rand.NewPCG(471, 1))
	mono := buildMono(t, lake)
	probes := liveTargets(lake, 4)
	// The monolith writes into lake itself, so the tables new contents
	// are cut from are taken before it does.
	pool := slices.Clone(lake.Tables())
	ctx := context.Background()

	// A topology is a set's engines behind one coordinator; a
	// save-load round trip puts the loaded engines behind a fresh one.
	type topology struct {
		name  string
		set   *Set
		eng   server.Engine
		front backend
	}
	topologies := []*topology{
		{name: "set-2", set: buildSet(t, lake, 2), front: setBackend},
		{name: "set-3", set: buildSet(t, lake, 3), front: setBackend},
		{name: "remote-2", set: buildSet(t, lake, 2), front: remoteBackend},
	}
	for _, tp := range topologies {
		tp.eng = tp.front(t, tp.set)
	}

	// sources maps each live table to the lake table its contents are
	// cut from; removed holds the names free for a later add.
	sources := map[string]*d3l.Table{}
	for _, tb := range pool {
		sources[tb.Name] = tb
	}
	var removed []string
	pickLive := func() string {
		names := make([]string, 0, len(sources))
		for name := range sources {
			names = append(names, name)
		}
		slices.Sort(names)
		return names[rng.IntN(len(names))]
	}

	for step := 0; step < steps; step++ {
		var label string
		switch op := rng.IntN(10); {
		case op < 3:
			src := pool[rng.IntN(len(pool))]
			name := fmt.Sprintf("model_add_%d", step)
			if len(removed) > 0 && rng.IntN(2) == 0 {
				name, removed = removed[len(removed)-1], removed[:len(removed)-1]
			}
			label = "add " + name
			want, err := mono.Add(cloneTable(t, src, name))
			if err != nil {
				t.Fatalf("step %d, %s: monolith: %v", step, label, err)
			}
			for _, tp := range topologies {
				if got, err := tp.eng.Add(cloneTable(t, src, name)); err != nil || got != want {
					t.Fatalf("step %d, %s: %s: id %d, %v; monolith id %d", step, label, tp.name, got, err, want)
				}
			}
			sources[name] = src
		case op < 6:
			name, rows := pickLive(), 1+rng.IntN(30)
			label = fmt.Sprintf("update %s to %d rows", name, rows)
			updated := func() *d3l.Table { return subTable(t, cloneTable(t, sources[name], name), rows) }
			want, err := mono.Update(updated())
			if err != nil {
				t.Fatalf("step %d, %s: monolith: %v", step, label, err)
			}
			for _, tp := range topologies {
				if got, err := tp.eng.Update(updated()); err != nil || got != want {
					t.Fatalf("step %d, %s: %s: %+v, %v; monolith %+v", step, label, tp.name, got, err, want)
				}
			}
		case op < 8:
			name := pickLive()
			label = "remove " + name
			if err := mono.Remove(name); err != nil {
				t.Fatalf("step %d, %s: monolith: %v", step, label, err)
			}
			for _, tp := range topologies {
				if err := tp.eng.Remove(name); err != nil {
					t.Fatalf("step %d, %s: %s: %v", step, label, tp.name, err)
				}
			}
			delete(sources, name)
			removed = append(removed, name)
		case op < 9:
			label = "compact"
			if err := mono.Compact(); err != nil {
				t.Fatal(err)
			}
			for _, tp := range topologies {
				for i := 0; i < tp.set.NumShards(); i++ {
					if err := tp.set.Shard(i).Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
		default:
			label = "save and load"
			var buf bytes.Buffer
			if err := d3l.Save(mono, &buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := d3l.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			mono = loaded
			for _, tp := range topologies {
				dir := t.TempDir()
				if err := WriteSet(tp.set, dir); err != nil {
					t.Fatal(err)
				}
				if tp.set, err = LoadSet(filepath.Join(dir, ManifestName), 0); err != nil {
					t.Fatal(err)
				}
				tp.eng = tp.front(t, tp.set)
			}
		}

		for _, tp := range topologies {
			at := fmt.Sprintf("step %d (%s), %s", step, label, tp.name)
			for _, target := range probes {
				want, err := mono.Query(ctx, target, d3l.WithK(6))
				if err != nil {
					t.Fatal(err)
				}
				got, err := tp.eng.Query(ctx, target, d3l.WithK(6))
				if err != nil {
					t.Fatalf("%s: %s: %v", at, target.Name, err)
				}
				assertAnswersEqual(t, at+" "+target.Name, want, got)
			}
			if want, got := mono.Tables(), tp.eng.Tables(); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: tables: monolith %v, sharded %v", at, want, got)
			}
			if mono.NumTables() != tp.eng.NumTables() || mono.NumAttributes() != tp.eng.NumAttributes() {
				t.Fatalf("%s: slots: monolith %d tables, %d attributes; sharded %d, %d", at,
					mono.NumTables(), mono.NumAttributes(), tp.eng.NumTables(), tp.eng.NumAttributes())
			}
		}
	}
}
