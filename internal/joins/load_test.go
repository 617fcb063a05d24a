package joins_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"d3l"
	"d3l/internal/datagen"
)

// TestJoinAnswersSurviveSaveAndLoad: an engine saved with its SA-join
// graph loads into a replica that holds the graph and answers every
// WithJoins query, join paths included, exactly as the engine did.
func TestJoinAnswersSurviveSaveAndLoad(t *testing.T) {
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

	var saved bytes.Buffer
	if err := d3l.Save(engine, &saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := d3l.Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := loaded.HeldJoinGraphEdges(); !ok || got != edges {
		t.Fatalf("the loaded engine holds %d join edges (graph held: %v), want %d", got, ok, edges)
	}
	if got := answers(loaded); !reflect.DeepEqual(got, want) {
		t.Fatal("the loaded engine answers join queries differently")
	}
}
